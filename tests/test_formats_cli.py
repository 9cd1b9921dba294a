import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abnormal_forge import _dectext, construction, formats, nt
from abnormal_forge._dectext import (INT_FAST_CHARS, TEXT_FAST_BITS, brief,
                                     int_to_text, text_to_int)
from abnormal_forge.cli import _build_parser, main
from abnormal_forge.construction import (TABLE_ENTRY_BYTES, BlockCertificate,
                                         ConstructionConfig, Mode, construct,
                                         verify_certificate)
from abnormal_forge.errors import InputFormatError
from abnormal_forge.formats import (_cert_from_json, _cert_to_json,
                                    parse_digit_file, read_certificate_file,
                                    read_digit_file, run_header,
                                    write_certificate_file, write_digit_file)
from abnormal_forge.seed import FileDigitSource, RngDigitSource

from conftest import RELAXED_MODES, WORKED_SEED, lifted_int_limit


def _write_seed(tmp_path, digits=WORKED_SEED, name="seed.cf"):
    path = tmp_path / name
    path.write_text("".join(f"{d}\n" for d in digits), encoding="utf-8")
    return path


def test_digit_file_round_trip(tmp_path):
    path = tmp_path / "digits.cf"
    header = run_header({"blocks": 1}, {"kind": "list"})
    digits = [1, 2, 3, (1 << 225) + 1]
    write_digit_file(path, digits, header)
    back, parsed_header = read_digit_file(path)
    assert back == digits
    assert parsed_header["config"] == {"blocks": 1}
    assert parsed_header["tool"] == "abnormal-forge"


def test_digit_file_reader_tolerates_plain_files(tmp_path):
    path = tmp_path / "plain.cf"
    path.write_text("# just a comment\n4\n5\n", encoding="utf-8")
    digits, header = read_digit_file(path)
    assert digits == [4, 5] and header is None


def test_digit_file_reader_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cf"
    path.write_text("1\n0\n", encoding="utf-8")
    with pytest.raises(InputFormatError):
        read_digit_file(path)


def test_digit_file_writes_large_values_in_mixed_chunks(tmp_path):
    # Large values sit among short ones, next to each other and far
    # apart; the bytes are those of str() either way.
    path = tmp_path / "mixed.cf"
    big = [(1 << TEXT_FAST_BITS) + 7, 3**5000, (1 << 40_000) + 1]
    digits = [5] * 4095 + [big[0], 2, big[1]] + [9] * 5000 + [big[2]]
    header = run_header({}, {})
    write_digit_file(path, digits, header)
    with lifted_int_limit():
        body = "".join(f"{d}\n" for d in digits)
    text = path.read_text(encoding="utf-8")
    assert text == ("# abnormal-forge digit file v1\n# header: "
                    f"{json.dumps(header, sort_keys=True)}\n" + body)
    assert read_digit_file(path) == (digits, header)


def test_digit_file_reads_in_memory_per_digit_not_per_line(tmp_path):
    # One pass over the open file: no list of lines is built, so a read
    # holds the digit list and little else (a list of lines costs ~60 B
    # a line).
    path = tmp_path / "long.cf"
    lines = 200_000
    write_digit_file(path, [1 + i % 12 for i in range(lines)],
                     run_header({}, {}))
    for read in (read_digit_file, FileDigitSource):
        tracemalloc.start()
        try:
            result = read(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * lines, (read.__name__, peak / lines)
        del result


def test_digit_file_header_is_the_first_header_line():
    # The first stripped line that starts with the prefix is the header,
    # wherever it appears; it must hold JSON, even if that JSON is null,
    # and later header lines are ignored unparsed.
    def parse(*lines):
        return parse_digit_file(iter(lines))

    assert parse("1", "  # header: {\"a\": 1}  ", "2") == ([1, 2], {"a": 1})
    assert parse("# header: null", "3", "# header: {bad") == ([3], None)
    assert parse("# header: [1]", "# header: [2]") == ([], [1])
    assert parse("#header: {bad", "# note: # header: {bad", "4") == ([4], None)
    for lines in (["# header: {bad", "1"], ["1", "# header:", "2"],
                  ["# header: {bad", "# header: {}"]):
        with pytest.raises(InputFormatError) as failed:
            parse(*lines)
        assert str(failed.value) == "malformed header comment", lines
        assert failed.value.line is None


def test_digit_file_reports_its_first_bad_line(tmp_path, capsys):
    # One pass reports whichever bad line comes first: a bad digit before
    # a malformed header or an undecodable byte (past the first block the
    # reader decodes), or the header before a bad digit. Either exits 2.
    path = tmp_path / "bad.cf"
    cases = {b"1\n0\n# header: {bad\n":
             "line 2: partial quotients must be >= 1, got 0",
             b"1\n# header: {bad\n0\n": "malformed header comment",
             b"1\nx\n" + b"1\n" * 10_000 + b"\xff\n":
             "line 2: not an integer: 'x'",
             b"\xff\n0\n": "'utf-8' codec can't decode byte 0xff in "
                          "position 0: invalid start byte"}
    for data, message in cases.items():
        path.write_bytes(data)
        for args in (["analyze", "cf", "--digits", str(path), "--strings", "1",
                      "--prefix", "1"],
                     ["construct", "--seed-file", str(path), "--block-size",
                      "4", "--blocks", "1", "--out-digits",
                      str(tmp_path / "re.cf"), "--out-cert",
                      str(tmp_path / "re.json")]):
            assert main(args) == 2, (message, args)
            assert capsys.readouterr() == ("", f"error: {message}\n"), args


def test_certificate_round_trip_preserves_huge_integers(tmp_path, worked_number):
    path = tmp_path / "cert.json"
    header = run_header({"blocks": 1}, {"kind": "list"})
    write_certificate_file(path, worked_number.certificates, header)
    certs, parsed = read_certificate_file(path)
    assert certs == list(worked_number.certificates)
    assert certs[0].inserted[3] == (1 << 225) + 1
    assert parsed["partial"] is False


def test_certificate_round_trip_past_str_limit(tmp_path, worked_number):
    cert = worked_number.certificates[0]._replace(
        inserted=worked_number.certificates[0].inserted[:3] + ((1 << 100_000) + 1,))
    path = tmp_path / "big.json"
    write_certificate_file(path, [cert], run_header({}, {}))
    back, _ = read_certificate_file(path)
    assert back[0].inserted[3] == (1 << 100_000) + 1


# Bit sizes and string lengths on both sides of the fast-path thresholds.
_BITS = st.one_of(st.integers(0, 80),
                  st.integers(TEXT_FAST_BITS - 80, TEXT_FAST_BITS + 80),
                  st.integers(0, 60_000))
_CHARS = st.one_of(st.integers(1, 40),
                   st.integers(INT_FAST_CHARS - 40, INT_FAST_CHARS + 40),
                   st.integers(1, 20_000))


@st.composite
def _big_ints(draw):
    bits = draw(_BITS)
    return random.Random(draw(st.integers(0, 2**32))).getrandbits(bits)


@st.composite
def _digit_strings(draw):
    length = draw(_CHARS)
    rng = random.Random(draw(st.integers(0, 2**32)))
    body = "".join(rng.choice("0123456789") for _ in range(length))
    return "0" * draw(st.integers(0, 3)) + body


@settings(max_examples=60, deadline=None)
@given(_big_ints())
@example(0)
@example(10**3010 - 1)
@example(10**3010)
@example(10**3011)
@example(10**6000 - 1)
@example((1 << TEXT_FAST_BITS) - 1)
@example(1 << TEXT_FAST_BITS)
def test_int_to_text_is_str(n):
    with lifted_int_limit():
        expected, negated = str(n), str(-n)
    assert int_to_text(n) == expected
    assert int_to_text(-n) == negated
    assert text_to_int(expected) == n


@settings(max_examples=60, deadline=None)
@given(_digit_strings())
@example("0" * (INT_FAST_CHARS + 500))
@example("0" * 7 + "1" * INT_FAST_CHARS)
@example("1" + "0" * 6000)
@example("9" * 6000)
def test_text_to_int_is_int(text):
    # int() of a text that is str() of its value, and the text back from
    # int_to_text; leading zeros are refused.
    with lifted_int_limit():
        expected = int(text)
        canonical = str(expected) == text
    if canonical:
        assert text_to_int(text) == expected
        assert int_to_text(expected) == text
    else:
        with pytest.raises(ValueError, match="not a canonical decimal"):
            text_to_int(text)


def _canonical_value(text):
    """The int whose str() is ``text``, or None if there is none."""
    with lifted_int_limit():
        try:
            value = int(text)
        except ValueError:
            return None
        return value if str(value) == text else None


_WORKED_CERT = BlockCertificate(
    index=1, base=2, block_end=4, inserted=(1, 2, 555, (1 << 225) + 1),
    denoms_before=(10, 13), denoms_after=(23, 59, 32768), prime=59,
    exponent=15, digit_bound=15, mode="paper")
_PIECES = ("0", "7", "9", "+", "-", "_", " ", "\n", "\u3000", "\x1c",
           "\u0663", "x", "\u00b2")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PIECES),
                          st.integers(1, INT_FAST_CHARS + 200)), max_size=4))
@example([("+", 1), ("5", 1)])
@example([("+", 1), ("9", 5000)])
@example([("1", 1), ("_", 1), ("0", 3)])
@example([("1_", 2500), ("1", 1)])
@example([(" ", 1), ("9", 5000), (" ", 1)])
@example([("\u0663", 5000)])
@example([("9", 4000), ("x", 1)])
@example([("-", 1), ("7", 5000)])
@example([(" ", 2), ("+", 1), ("9", 4400), ("\u3000", 1)])
@example([("9_", 2600), ("9", 1)])
@example([("-", 1), ("\u0663_", 2300), ("\u0663", 1)])
@example([("+", 1), ("\u0663", 3000), ("7", 2000)])
@example([("_", 1), ("9", 5000)])
@example([("9", 5000), ("_", 2), ("9", 1)])
@example([("\x1c", 1), ("9", 5000)])
@example([("0", 1)])
@example([("0", 2)])
@example([("-", 1), ("0", 1)])
@example([("-", 1), ("0", 1), ("7", 5000)])
@example([("9", 300), ("'", 1)])
@example([("+", 1), ("7", 250), ('"', 1), ("9", 5000)])
@example([("x", 199), ("\\", 2), ("'", 1), ('"', 1)])
def test_noncanonical_text_is_refused(parts):
    # Each reader takes a text exactly when it is str() of its value (a
    # digit-file line after stripping). Only the oracle lifts the digit
    # limit; the readers run under the interpreter's default and leave it
    # as it was.
    limit = sys.get_int_max_str_digits()
    text = "".join(piece * count for piece, count in parts)
    expected = _canonical_value(text)
    refusal = f"not a canonical decimal integer: {text!r:.200}"
    if expected is None:
        with pytest.raises(ValueError) as failed:
            text_to_int(text)
        assert str(failed.value) == refusal
    else:
        assert text_to_int(text) == expected
        assert int_to_text(expected) == text
    # The digit-file reader strips each line and rejects values below 1.
    stripped = text.strip()
    line_value = _canonical_value(stripped)
    if stripped and not stripped.startswith("#"):
        if line_value is None:
            with pytest.raises(InputFormatError, match="not an integer"):
                parse_digit_file(iter([text]))
        elif line_value < 1:
            with pytest.raises(InputFormatError, match="must be >= 1"):
                parse_digit_file(iter([text]))
        else:
            assert parse_digit_file(iter([text])) == ([line_value], None)
    # The certificate reader refuses the same texts with text_to_int's
    # message.
    record = _cert_to_json(_WORKED_CERT)
    record["prime"] = text
    if expected is None:
        with pytest.raises(InputFormatError) as failed:
            _cert_from_json(record, 1)
        assert str(failed.value) == f"bad certificate record: {refusal}"
    else:
        assert _cert_from_json(record, 1).prime == expected
    assert sys.get_int_max_str_digits() == limit


def test_refusing_a_long_text_copies_none_of_it():
    # The refusal shows the first 200 characters of the text's repr, built
    # from a prefix: a million-character field is not copied to show them.
    for text in ("+" + "9" * 10**6, "9" * 10**6 + "'", "\u0663" * 10**6):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as failed:
                text_to_int(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (text[-1], peak)
        assert str(failed.value) == (
            f"not a canonical decimal integer: {text!r:.200}")


def test_refusing_a_long_negative_text_copies_none_of_it():
    # A leading '-' is checked in place: the digits after it are not
    # sliced off into a copy.
    for text in ("-" + "x" * 10**6, "-" + "٣" * 10**6):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                text_to_int(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 1024, (text[-1], peak)


def test_text_of_more_than_a_million_digits():
    # Past the default Decimal context's exponent limit of 999999; the two
    # converters share no code, so the round trip checks each.
    value = (1 << 3_400_000) + 12_345
    text = int_to_text(value)
    assert len(text) == 1_023_502 and text.endswith("21721")
    assert text_to_int(text) == value


def test_conversions_leave_no_reference_cycles():
    value = (1 << 200_000) + 12_345
    gc.collect()
    gc.disable()
    try:
        text = int_to_text(value)
        assert text_to_int(text) == value
        # Repeats are cache hits; evictions drop whole entries.
        assert int_to_text(value) == text and text_to_int(text) == value
        for extra in range(_dectext.SPLIT_CACHE_SIZE + 1):
            assert text_to_int(int_to_text(value + extra)) == value + extra
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_split_caches_are_exact():
    # Equal values share an entry; a value differing anywhere, even in a
    # text's last character, has its own.
    value = (1 << 5000) + 3
    _dectext._memo.clear()
    text = int_to_text(value)
    assert int_to_text(value + 0) is text
    # One memo, both ways: the rendered text parses as a lookup.
    assert list(_dectext._memo.items()) == [(value, text), (text, value)]
    assert text_to_int(text) is value
    other = text[:-1] + ("1" if text[-1] != "1" else "2")
    with lifted_int_limit():
        expected = int(other)
    assert expected != value and text_to_int(other) == expected
    assert text_to_int(text) == value
    assert text_to_int("-" + text) == -value
    # A parsed text renders as a lookup.
    assert int_to_text(text_to_int(other)) is other
    # A refused text leaves the memo unchanged.
    memo = list(_dectext._memo.items())
    for form in ("+" + text, text + " ", text.replace("0", "\u0660")):
        with pytest.raises(ValueError, match="not a canonical decimal"):
            text_to_int(form)
    assert list(_dectext._memo.items()) == memo
    # Below the split thresholds nothing is memoized.
    _dectext._memo.clear()
    small = 1 << 1900  # 572 digits
    assert text_to_int(int_to_text(small)) == small
    assert len(_dectext._memo) == 0


def test_memo_is_safe_across_threads():
    # Four threads render and parse the same large values in different
    # orders, evicting the memo many times over: powers of two plus a
    # small part (the power path), powers of three (the bit split) and
    # negative texts (parsed without their sign).
    values = [(1 << (TEXT_FAST_BITS + 101 * i)) + 3**i if i % 2
              else 3 ** (1_300 + 37 * i)
              for i in range(3 * _dectext.SPLIT_CACHE_SIZE)]
    with lifted_int_limit():
        texts = [str(v) for v in values]
    wrong, errors = [], []

    def work(offset):
        try:
            for step in range(2 * len(values)):
                i = (offset + step * (1 + offset)) % len(values)
                got = (int_to_text(values[i]), text_to_int(texts[i]),
                       text_to_int("-" + texts[i]))
                if got != (texts[i], values[i], -values[i]):
                    wrong.append(i)
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    _dectext._memo.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    assert len(_dectext._memo) <= 2 * _dectext.SPLIT_CACHE_SIZE


def test_cli_paper_files_match_str_rendering(tmp_path, monkeypatch, capsys):
    # Sampler seed 1 gives a 18226-bit tail (5487 decimal digits): above
    # both fast-path thresholds and past the 4300-digit int() limit.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    digits_path, cert_path = tmp_path / "p.cf", tmp_path / "p.json"
    assert main(["construct", "--seed-rng", "1", "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(digits_path),
                 "--out-cert", str(cert_path)]) == 0
    config = ConstructionConfig(block_size=4, blocks=1,
                                mode=Mode.parse("paper"))
    number = construct(config, RngDigitSource(1))
    cert = number.certificates[0]
    assert cert.inserted[3].bit_length() > TEXT_FAST_BITS

    written = digits_path.read_text(encoding="utf-8")
    head = "".join(written.splitlines(keepends=True)[:2])
    payload = json.loads(cert_path.read_text(encoding="utf-8"))
    with lifted_int_limit():
        body = "".join(f"{d}\n" for d in number.digits_through_blocks)
        block = {"index": cert.index, "base": str(cert.base),
                 "block_end": cert.block_end,
                 "inserted": [str(v) for v in cert.inserted],
                 "denoms_before": [str(v) for v in cert.denoms_before],
                 "denoms_after": [str(v) for v in cert.denoms_after],
                 "prime": str(cert.prime), "exponent": str(cert.exponent),
                 "digit_bound": str(cert.digit_bound), "mode": cert.mode}
    assert written == head + body
    expected_cert = json.dumps(dict(payload, blocks=[block]), indent=2,
                               sort_keys=True) + "\n"
    assert cert_path.read_text(encoding="utf-8") == expected_cert

    # The written digit file is also a valid seed file.
    capsys.readouterr()
    assert main(["construct", "--seed-file", str(digits_path),
                 "--block-size", "4", "--blocks", "1", "--mode", "toy",
                 "--total-digits", "12",
                 "--out-digits", str(tmp_path / "again.cf"),
                 "--out-cert", str(tmp_path / "again.json")]) == 0
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert_path),
                 "--digits", str(digits_path)]) == 0
    report = capsys.readouterr().out

    # The lowest digit limit the interpreter allows changes no byte.
    low_digits, low_cert = tmp_path / "low.cf", tmp_path / "low.json"
    cli = [sys.executable, "-X", "int_max_str_digits=640",
           "-m", "abnormal_forge.cli"]
    built = subprocess.run(
        [*cli, "construct", "--seed-rng", "1", "--block-size", "4",
         "--blocks", "1", "--mode", "paper", "--out-digits", str(low_digits),
         "--out-cert", str(low_cert)],
        capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr
    assert low_digits.read_bytes() == digits_path.read_bytes()
    assert low_cert.read_bytes() == cert_path.read_bytes()
    checked = subprocess.run(
        [*cli, "verify", "--cert", str(low_cert), "--digits", str(low_digits)],
        capture_output=True, text=True, timeout=120)
    assert (checked.returncode, checked.stdout, checked.stderr) == (0, report, "")


def test_certificate_reader_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputFormatError):
        read_certificate_file(path)
    path.write_text(json.dumps({"format": "something-else", "blocks": []}),
                    encoding="utf-8")
    with pytest.raises(InputFormatError):
        read_certificate_file(path)


def test_headers_reproducible_with_pinned_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert run_header({}, {}) == run_header({}, {})
    assert run_header({}, {})["timestamp"].startswith("2023-11-14")


def test_cli_construct_verify_round_trip(tmp_path, capsys):
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    code = main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(digits), "--out-cert", str(cert)])
    out = capsys.readouterr().out
    assert code == 0
    assert "block 1" in out and "exponent=15" in out
    code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["all_passed"] is True
    assert report["blocks"][0]["tail_bound_met"] is True


def test_cli_construct_outputs_are_reproducible(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    seed = _write_seed(tmp_path)
    pairs = []
    for tag in ("a", "b"):
        digits = tmp_path / f"{tag}.cf"
        cert = tmp_path / f"{tag}.json"
        assert main(["construct", "--seed-file", str(seed),
                     "--block-size", "4", "--blocks", "1", "--mode", "paper",
                     "--out-digits", str(digits), "--out-cert", str(cert)]) == 0
        pairs.append((digits.read_bytes(), cert.read_bytes()))
    capsys.readouterr()
    assert pairs[0] == pairs[1]


@pytest.mark.parametrize("mode,seed_args,block_size", [
    ("paper", ["--seed-file", None], "4"),
    ("toy", ["--seed-rng", "7"], "4"),
    ("paper", ["--seed-rng", "2"], "6"),
    ("toy", ["--seed-rng", "11"], "6"),
])
def test_cli_verify_accepts_every_constructed_config(tmp_path, capsys, mode,
                                                     seed_args, block_size):
    if seed_args[1] is None:
        seed_args = [seed_args[0], str(_write_seed(tmp_path))]
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    assert main(["construct", *seed_args, "--block-size", block_size,
                 "--blocks", "1", "--mode", mode,
                 "--out-digits", str(digits), "--out-cert", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 0
    capsys.readouterr()


def test_cli_rejects_odd_block_size(tmp_path, capsys):
    seed = _write_seed(tmp_path)
    code = main(["construct", "--seed-file", str(seed), "--block-size", "5",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(tmp_path / "d.cf"),
                 "--out-cert", str(tmp_path / "c.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "even" in err


def test_cli_verify_detects_tampering(tmp_path, capsys):
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    main(["construct", "--seed-file", str(seed), "--block-size", "4",
          "--blocks", "1", "--mode", "paper",
          "--out-digits", str(digits), "--out-cert", str(cert)])
    payload = json.loads(cert.read_text())
    payload["blocks"][0]["inserted"][2] = "554"
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = [c["name"] for b in report["blocks"] for c in b["checks"]
              if c["passed"] is False]
    assert "inserted_digits" in failed


@pytest.mark.parametrize("tail", ["0", "-5"])
def test_cli_verify_fails_a_claimed_tail_below_one(tmp_path, capsys, tail):
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    main(["construct", "--seed-file", str(seed), "--block-size", "4",
          "--blocks", "1", "--mode", "paper",
          "--out-digits", str(digits), "--out-cert", str(cert)])
    payload = json.loads(cert.read_text())
    payload["blocks"][0]["inserted"][3] = tail
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    failed = {c["name"] for b in json.loads(captured.out)["blocks"]
              for c in b["checks"] if c["passed"] is False}
    assert {"inserted_digits", "tail_bound"} <= failed


@pytest.mark.parametrize("block_end", ["0", "-2"])
def test_cli_verify_fails_a_block_end_below_one(tmp_path, capsys, block_end):
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    main(["construct", "--seed-file", str(seed), "--block-size", "4",
          "--blocks", "1", "--mode", "paper",
          "--out-digits", str(digits), "--out-cert", str(cert)])
    payload = json.loads(cert.read_text())
    payload["blocks"][0]["block_end"] = block_end
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    checks = json.loads(captured.out)["blocks"][0]["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [("block_layout", False)]


def test_cli_verify_fails_a_certificate_file_with_no_block(tmp_path, capsys):
    # An emptied block list certifies nothing, so it cannot pass.
    digits, cert = _paper_files(tmp_path, 1, 4)
    payload = json.loads(cert.read_text(encoding="utf-8"))
    payload["blocks"] = []
    cert.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"all_passed": False, "blocks": []}


def _with_records(cert, indices):
    """Rewrite ``cert`` to hold copies of its one record numbered ``indices``."""
    payload = json.loads(cert.read_text(encoding="utf-8"))
    record = payload["blocks"][0]
    payload["blocks"] = [dict(record, index=i) for i in indices]
    cert.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("indices", [
    [1, 1], [2, 1], [0], [1, 3], [2], ["2"], [1] * 2000],
    ids=["repeated", "reordered", "renumbered", "renumbered-second",
         "first-missing", "first-missing-text", "2000-copies"])
def test_cli_verify_refuses_records_out_of_file_order(tmp_path, capsys,
                                                      monkeypatch, indices):
    # construct numbers its blocks 1, 2, ... in file order, and a partial
    # file holds the first j of them. The first record numbered otherwise
    # ends the read with exit 2 once its index is converted, before any
    # other field: its long paper tail is neither rendered nor parsed, and
    # verify prints no report.
    digits, cert = _construct_worked(tmp_path)
    _with_records(cert, indices)
    place = next(n for n, i in enumerate(indices, 1) if int(i) != n)
    payload = json.loads(cert.read_text(encoding="utf-8"))
    misnumbered = payload["blocks"][place - 1]
    misnumbered["inserted"] = misnumbered["inserted"][:3] + ["9" * 5000]
    cert.write_text(json.dumps(payload), encoding="utf-8")
    events = []
    for module, name in [(formats, "_integer"), (construction, "tail_digit"),
                         (_dectext, "_digits_to_int")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name,
                            **kwargs: events.append(name)
                            or real(*args, **kwargs))
    capsys.readouterr()
    code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: certificate block {place} is numbered "
                            f"{indices[place - 1]}, not {place}\n")
    # Each honest record before it converts its 15 integers; then one.
    assert events == ["_integer"] * (15 * (place - 1) + 1)


def test_cli_verify_checks_a_second_record_numbered_2(tmp_path, capsys):
    # A copy of block 1 numbered 2 passes the list rule and fails its own
    # checks.
    digits, cert = _construct_worked(tmp_path)
    _with_records(cert, [1, 2])
    capsys.readouterr()
    code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [b["passed"] for b in report["blocks"]] == [True, False]


@pytest.fixture(scope="module")
def worked_paper_files(tmp_path_factory):
    """The worked example's paper-mode digit file and certificate payload."""
    tmp_path = tmp_path_factory.mktemp("worked")
    digits, cert = tmp_path / "y.cf", tmp_path / "y.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "--seed-file", str(_write_seed(tmp_path)),
                     "--block-size", "4", "--blocks", "1", "--mode", "paper",
                     "--out-digits", str(digits),
                     "--out-cert", str(cert)]) == 0
    return digits, json.loads(cert.read_text(encoding="utf-8"))


# Each field of a certificate record, and each item of its list fields.
_RECORD_PATHS = [("index",), ("base",), ("block_end",), ("prime",),
                 ("exponent",), ("digit_bound",), ("mode",), ("inserted",),
                 ("denoms_before",), ("denoms_after",),
                 *[("inserted", j) for j in range(4)],
                 *[("denoms_before", j) for j in range(2)],
                 *[("denoms_after", j) for j in range(3)]]

# Ways to write a decimal text that str() does not write.
_NONCANONICAL = [lambda t: "+" + t, lambda t: "0" + t, lambda t: f" {t}",
                 lambda t: f"{t}\n", lambda t: t[:1] + "_" + t[1:],
                 lambda t: t + ".0", lambda t: t + "e0",
                 lambda t: t.translate(str.maketrans("0123456789",
                                                     "\u0660\u0661\u0662"
                                                     "\u0663\u0664\u0665"
                                                     "\u0666\u0667\u0668"
                                                     "\u0669"))]


def _json_values(original):
    """JSON values for a field whose honest value is ``original``: its type
    swapped, its sign flipped, sizes up to 10**5000, non-canonical text,
    and other JSON types."""
    others = st.one_of(
        st.sampled_from(["", "-", "-0", "toy", "paper", "relaxed:2"]),
        st.none(), st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.lists(st.integers(0, 3), max_size=2),
        st.dictionaries(st.sampled_from(["a", "index"]), st.integers(0, 2),
                        max_size=1))
    if type(original) is list:
        return st.one_of(
            st.just(original[::-1]), st.just(original + original[-1:]),
            st.just([int(v) for v in original]),
            st.lists(st.integers(-3, 10**70).map(str), max_size=5), others)
    number = int(original) if original != "paper" else 1
    sizes = st.builds(lambda e, d: 10**e + d, st.integers(0, 5000),
                      st.integers(-1, 1))
    integers = st.one_of(st.just(-number), st.just(number + 1), sizes,
                         sizes.map(lambda n: -n), st.integers(-2, 2))
    return st.one_of(
        st.just(number), st.just(str(number)), integers,
        integers.map(str),
        st.tuples(st.sampled_from(_NONCANONICAL),
                  integers).map(lambda f: f[0](str(f[1]))),
        others)


def _denoted(value):
    """What a certificate field's JSON value reads as, for comparison."""
    if type(value) in (int, str):
        return str(value)
    if type(value) is list:
        return [_denoted(v) for v in value]
    return (type(value).__name__, repr(value))


# Record lists: the honest one, and lists construct never writes.
_RECORD_LISTS = {"unchanged": [1], "empty": [], "repeated": [1, 1],
                 "renumbered": [1, 2], "reordered": [2, 1],
                 "first-missing": [2], "tripled": [1, 1, 1]}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_verify_ends_in_a_contracted_exit_on_hostile_records(
        worked_paper_files, tmp_path_factory, data):
    # The verifier passes the worked certificate only as construct wrote
    # it: any other record list, or the JSON values of one or two fields
    # changed to another type, sign, size or text, exits 1 or 2 and raises
    # nothing, whichever fault the reader meets first.
    digits, payload = worked_paper_files
    record = json.loads(json.dumps(payload["blocks"][0]))
    paths = data.draw(st.lists(st.sampled_from(_RECORD_PATHS), min_size=1,
                               max_size=2, unique_by=lambda p: p[0]),
                      label="fields")
    listing = data.draw(st.sampled_from(sorted(_RECORD_LISTS)), label="list")
    indices = _RECORD_LISTS[listing]
    cert = tmp_path_factory.getbasetemp() / "hostile.json"
    with lifted_int_limit():  # str() and json of values up to 10**5000
        unchanged = listing == "unchanged"
        for path in paths:
            holder = record if len(path) == 1 else record[path[0]]
            original = holder[path[-1]]
            value = data.draw(_json_values(original), label="value")
            holder[path[-1]] = value
            unchanged = unchanged and _denoted(value) == _denoted(original)
        blocks = [record if i == 1 else dict(record, index=i)
                  for i in indices]
        cert.write_text(json.dumps(dict(payload, blocks=blocks)),
                        encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    assert code in ((0,) if unchanged else (1, 2)), (code, err.getvalue())


# Digit-file lines construct never writes, beside blank and comment lines.
_LINE_NOISE = ["", "   ", "#", "# note", "# header: {}", "# header: [",
               "# header:", "header: {}", "1 2", "x"]


def _line_texts():
    """Digit-file line texts: values up to 10**5000 as str() writes them,
    signed, zero-padded, in non-ASCII digits or otherwise non-canonical,
    and noise lines."""
    sizes = st.builds(lambda e, d: 10**e + d, st.integers(0, 5000),
                      st.integers(-1, 1))
    values = st.one_of(st.integers(-2, 600), sizes, sizes.map(lambda n: -n))
    return st.one_of(values.map(str),
                     st.tuples(st.sampled_from(_NONCANONICAL),
                               values).map(lambda f: f[0](str(f[1]))),
                     st.sampled_from(_LINE_NOISE))


def _mutated_digit_file(data, lines, tail):
    """The worked digit file's ``lines`` (title, header, then the seed and
    inserted digits, tail last) with one mutation drawn from ``data``."""
    lines = list(lines)
    kind = data.draw(st.sampled_from(
        ["value", "insert", "append", "delete", "duplicate", "swap",
         "header", "tail"]), label="mutation")
    where = st.integers(0, len(lines) - 1)
    if kind == "value":  # a seed digit or one of the first three inserts
        lines[data.draw(st.integers(2, len(lines) - 2))] = data.draw(
            _line_texts())
    elif kind == "insert":
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(_line_texts()))
    elif kind == "append":
        lines += data.draw(st.lists(_line_texts(), min_size=1, max_size=3))
    elif kind == "delete":
        del lines[data.draw(where)]
    elif kind == "duplicate":
        i = data.draw(where)
        lines.insert(i, lines[i])
    elif kind == "swap":
        i, j = data.draw(where), data.draw(where)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "header":  # delete, cut or overwrite the header line
        cut = data.draw(st.integers(0, len(lines[1])))
        lines[1] = data.draw(st.sampled_from(
            ["", lines[1][:cut], lines[1][:cut] + "x" + lines[1][cut + 1:],
             lines[1][:cut] + "}" + lines[1][cut + 1:]]))
    else:  # a lowered tail
        lines[-1] = str(data.draw(st.one_of(st.just(tail - 1),
                                            st.integers(1, tail - 1))))
    return "".join(f"{line}\n" for line in lines)


def _reference_digits(text):
    """The digits of a digit file's ``text``, or None if the grammar refuses
    it: after stripping, each line is blank, a comment, or an ASCII decimal
    with no sign or leading zero; the first ``# header:`` line holds JSON."""
    digits, header_seen = [], False
    for raw in text.split("\n"):
        line = raw.strip()
        if line.startswith("# header:") and not header_seen:
            header_seen = True
            try:
                json.loads(line[len("# header:"):])
            except ValueError:
                return None
        elif line and not line.startswith("#"):
            if not re.fullmatch("[1-9][0-9]*", line):
                return None
            digits.append(int(line))
    return digits


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_verify_ends_in_a_contracted_exit_on_hostile_digit_files(
        worked_paper_files, tmp_path_factory, data):
    # The verifier passes the worked certificate exactly when the digit file
    # parses and its first block_end + 4 digits are the ones construct wrote:
    # a refused file exits 2, a short one 2 and any other change 1. Raising
    # the tail is left out: verify passes some raised tails.
    digits_path, payload = worked_paper_files
    honest = digits_path.read_text(encoding="utf-8")
    needed = payload["blocks"][0]["block_end"] + 4
    lines = honest.splitlines()
    assert len(lines) == 2 + needed  # title, header, digits through the tail
    path = tmp_path_factory.getbasetemp() / "hostile.cf"
    with lifted_int_limit():  # str() and int() of values up to 10**5000
        text = _mutated_digit_file(data, lines, int(lines[-1]))
        path.write_text(text, encoding="utf-8")
        digits = _reference_digits(text)
        expected = (2 if digits is None or len(digits) < needed else
                    0 if digits[:needed] == _reference_digits(honest) else 1)
    cert = tmp_path_factory.getbasetemp() / "honest.json"
    cert.write_text(json.dumps(payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--cert", str(cert), "--digits", str(path)])
    assert code == expected, (code, err.getvalue())


def test_json_numbers_past_the_digit_limit_are_refused(tmp_path):
    # json reads numbers under the interpreter's digit limit; a longer one
    # ends in exit 2 at once, not in a quadratic parse or a traceback.
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    assert main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(digits), "--out-cert", str(cert)]) == 0
    text = cert.read_text(encoding="utf-8")
    assert '"block_end": 4,' in text
    cert.write_text(text.replace('"block_end": 4,',
                                 f'"block_end": 1{"0" * 399_999},'),
                    encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", "verify",
         "--cert", str(cert), "--digits", str(digits)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr.startswith("error: not valid JSON: ")
    # The same number in a digit file's header comment.
    lines = digits.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace('"blocks": 1', f'"blocks": {"9" * 5000}')
    digits.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(InputFormatError, match="malformed header"):
        read_digit_file(digits)
    # Only a library caller's config can put one in a header: writing it
    # raises before the digit file is opened.
    config = ConstructionConfig(block_size=4, blocks=10**5000,
                                mode=Mode.parse("toy"))
    never = tmp_path / "never.cf"
    with pytest.raises(ValueError):
        write_digit_file(never, [1], run_header(config.echo(), {}))
    assert not never.exists()


def _verify_child(cert, digits, *flags):
    return subprocess.run(
        [sys.executable, *flags, "-m", "abnormal_forge.cli", "verify",
         "--cert", str(cert), "--digits", str(digits)],
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("old,new", [
    ('"prime": "59"', '"prime": 1e400'),
    (f'"{(1 << 225) + 1}"', "1e400"),
    ('"exponent": "15"', '"exponent": -Infinity'),
])
def test_cli_verify_refuses_floats_past_the_float_range(tmp_path, old, new):
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    assert main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(digits), "--out-cert", str(cert)]) == 0
    text = cert.read_text(encoding="utf-8")
    assert text.count(old) == 1
    cert.write_text(text.replace(old, new), encoding="utf-8")
    result = _verify_child(cert, digits)
    assert result.returncode == 2 and result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr == ("error: bad certificate record: cannot convert "
                             "float infinity to integer\n")


@pytest.mark.parametrize("width,flags", [
    (5000, ()), (641, ("-X", "int_max_str_digits=640"))])
def test_cli_verify_fails_an_exponent_past_the_digit_limit(tmp_path, capsys,
                                                          width, flags):
    # The claimed k goes into check details by bit size, so a claim
    # past the interpreter's digit limit is a failed report (exit 1).
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    assert main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(digits), "--out-cert", str(cert)]) == 0
    capsys.readouterr()
    payload = json.loads(cert.read_text(encoding="utf-8"))
    payload["blocks"][0]["exponent"] = "9" * width
    cert.write_text(json.dumps(payload), encoding="utf-8")
    result = _verify_child(cert, digits, *flags)
    assert (result.returncode, result.stderr) == (1, "")
    checks = {c["name"]: c for c in json.loads(result.stdout)["blocks"][0]["checks"]}
    bits = int("9" * width).bit_length() if width < 4300 else None
    power_hit = checks["power_hit"]
    assert power_hit["passed"] is False
    assert power_hit["detail"].startswith("third denominator is 2**<")
    if bits is not None:
        assert power_hit["detail"] == f"third denominator is 2**<{bits}-bit integer>"
    for name in ("power_clears_modulus", "digit_bound", "tail_bound",
                 "gap_resolution"):
        assert checks[name]["passed"] is not None, name
    assert checks["digit_bound"]["passed"] is False


@pytest.mark.parametrize("width,flags", [
    (5000, ()), (641, ("-X", "int_max_str_digits=640"))])
def test_cli_verify_block_end_past_the_digit_limit(tmp_path, width, flags):
    # The "digit file too short" message renders the need by bit size.
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    assert main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(digits), "--out-cert", str(cert)]) == 0
    payload = json.loads(cert.read_text(encoding="utf-8"))
    payload["blocks"][0]["block_end"] = "9" * width
    cert.write_text(json.dumps(payload), encoding="utf-8")
    result = _verify_child(cert, digits, *flags)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(
        "error: digit file too short: certificates need <")
    assert "Exceeds the limit" not in result.stderr
    assert "Traceback" not in result.stderr


# Runs the CLI with its last argument read from stdin: one argv string
# longer than 128 KiB is refused by the kernel before the child starts.
_CLI_WITH_STDIN_ARG = ("import sys; from abnormal_forge.cli import entrypoint; "
                       "sys.argv.append(sys.stdin.read()); entrypoint()")


@pytest.mark.parametrize("mode", RELAXED_MODES.values(), ids=RELAXED_MODES)
def test_cli_refuses_relaxed_modes(tmp_path, capsys, mode):
    # Refused as unknown modes, with the text shortened: "1e100000000" once
    # ran Fraction() for well over 30 s, "1/0" raised ZeroDivisionError, a
    # traceback, and 10**6 digits printed Python's digit-limit error.
    message = "error: mode must be 'paper' or 'toy', got '"
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    construct_args = ["construct", "--seed-file", str(seed),
                      "--block-size", "4", "--blocks", "1",
                      "--out-digits", str(digits), "--out-cert", str(cert)]
    assert main([*construct_args, "--mode", mode]) == 2
    assert capsys.readouterr().err.startswith(message)
    child = subprocess.run(
        [sys.executable, "-c", _CLI_WITH_STDIN_ARG, *construct_args,
         "--mode"], input=mode, capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith(message)
    assert "Traceback" not in child.stderr
    assert not digits.exists() and not cert.exists()

    assert main([*construct_args, "--mode", "paper"]) == 0
    payload = json.loads(cert.read_text(encoding="utf-8"))
    payload["blocks"][0]["mode"] = mode
    cert.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 2
    assert capsys.readouterr().err.startswith(message)
    result = _verify_child(cert, digits)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(message)
    assert "Traceback" not in result.stderr


def test_cli_verify_shortens_an_unknown_mode(tmp_path, capsys):
    # A mode of 10**6 characters is echoed in a few dozen bytes, not in
    # full.
    seed = _write_seed(tmp_path)
    digits, cert = tmp_path / "y.cf", tmp_path / "y.json"
    assert main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--out-digits", str(digits),
                 "--out-cert", str(cert)]) == 0
    payload = json.loads(cert.read_text(encoding="utf-8"))
    payload["blocks"][0]["mode"] = "x" * 10**6
    cert.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 2
    assert len(capsys.readouterr().err.encode("utf-8")) < 200
    result = _verify_child(cert, digits)
    assert (result.returncode, result.stdout) == (2, "")
    assert len(result.stderr.encode("utf-8")) < 200
    assert "Traceback" not in result.stderr


def _paper_files(tmp_path, seed, block_size):
    digits = tmp_path / f"paper-{seed}.cf"
    cert = tmp_path / f"paper-{seed}.json"
    assert main(["construct", "--seed-rng", str(seed),
                 "--block-size", str(block_size), "--blocks", "1",
                 "--mode", "paper", "--out-digits", str(digits),
                 "--out-cert", str(cert)]) == 0
    return digits, cert


def test_cli_verify_refuses_noncanonical_tail_text(tmp_path, capsys):
    # Sampler seed 1: a 5487-digit tail, parsed by halves in both files.
    # The tail written with a sign, leading zeros or underscores is
    # refused in either file; another value fails the report.
    digits, cert = _paper_files(tmp_path, 1, 4)
    capsys.readouterr()
    payload = json.loads(cert.read_text(encoding="utf-8"))
    tail = payload["blocks"][0]["inserted"][3]
    assert len(tail) > 4300
    lines = digits.read_text(encoding="utf-8").splitlines(keepends=True)
    at = lines.index(tail + "\n")
    forms = ["+" + tail, "000" + tail,
             "_".join(tail[i:i + 3] for i in range(0, len(tail), 3))]

    def verify(cert_tail, digit_line):
        payload["blocks"][0]["inserted"][3] = cert_tail
        cert.write_text(json.dumps(payload), encoding="utf-8")
        digits.write_text("".join(lines[:at] + [digit_line + "\n"]
                                  + lines[at + 1:]), encoding="utf-8")
        code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
        captured = capsys.readouterr()
        if code == 2:
            return code, captured.out, captured.err
        report = json.loads(captured.out)
        return code, {c["name"] for b in report["blocks"]
                      for c in b["checks"] if c["passed"] is False}

    other = tail[:-1] + ("1" if tail[-1] != "1" else "2")
    for cert_tail, digit_line in ((other, tail), (tail, other)):
        code, failed = verify(cert_tail, digit_line)
        assert code == 1 and "inserted_digits" in failed
    for form in forms:
        assert verify(form, tail) == (
            2, "", "error: bad certificate record: not a canonical decimal "
            f"integer: {form!r:.200}\n"), form[:5]
        assert verify(tail, form) == (
            2, "", f"error: line {at + 1}: not an integer: {brief(form)!r}\n"
        ), form[:5]
    assert verify(tail, tail) == (0, set())


def test_verify_path_uses_no_fraction_and_no_expansion(tmp_path, capsys,
                                                      monkeypatch,
                                                      worked_number):
    # The verifier works on integer identities alone: with Fraction and
    # base_expansion refused in every module that holds either name, a
    # paper certificate still verifies, in the library and through the CLI.
    digits, cert = _paper_files(tmp_path, 1, 4)
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("the verify path left integer arithmetic")

    for name, module in list(sys.modules.items()):
        if name == "abnormal_forge" or name.startswith("abnormal_forge."):
            for attr in ("Fraction", "base_expansion"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    report = verify_certificate(worked_number.certificates[0],
                                worked_number.digits_through_blocks)
    assert report.passed and report.tail_bound_met
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"] is True


@pytest.fixture
def split_calls(monkeypatch):
    """The split conversions a fresh process would run, outermost calls only.

    Clears the memo, then records the int each rendering starts from, the
    text each parse starts from, and the int each bit split (a rendering
    off the power path) starts from.
    """
    _dectext._memo.clear()
    rendered, parsed, bit_split = [], [], []

    def spy(real, record):
        depth = [0]

        def wrapper(*args):
            if depth[0] == 0:
                record(args[0])
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(_dectext, "_split_text", spy(
        _dectext._split_text, rendered.append))
    monkeypatch.setattr(_dectext, "_digits_to_int", spy(
        _dectext._digits_to_int, parsed.append))
    monkeypatch.setattr(_dectext, "_to_decimal", spy(
        _dectext._to_decimal, bit_split.append))
    return rendered, parsed, bit_split


@pytest.mark.parametrize("seed,block_size,large_fields", [
    (36, 6, 1),   # a 1,452,026-bit tail; every other field is short
    (12, 6, 3),   # k = 2102: ell3 and q3 are past 2**2000 as well
])
def test_cli_converts_each_large_value_once(tmp_path, capsys, split_calls,
                                            seed, block_size, large_fields):
    # construct renders each large value once. verify parses no tail: it
    # renders the scheduled tail once, through the power path, so both
    # files' copies of it read as memo hits, and it parses each other
    # large field once.
    rendered, parsed, bit_split = split_calls
    digits, cert = _paper_files(tmp_path, seed, block_size)
    tail_bits = int(capsys.readouterr().out.split("tail_bits=")[1].split()[0])
    assert len(rendered) == len(set(rendered)) == large_fields
    tail = max(rendered)
    others = sorted(rendered)[:-1]
    assert tail.bit_length() == tail_bits

    # verify in a fresh process: clear the memo as an exit would.
    _dectext._memo.clear()
    rendered.clear()
    bit_split.clear()
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 0
    capsys.readouterr()
    assert rendered == [tail] and bit_split == []
    assert len(parsed) == len(set(parsed)) == large_fields - 1
    assert sorted(text_to_int(text) for text in parsed) == others


def test_reading_a_rendered_tail_runs_no_grammar_scan(tmp_path, capsys,
                                                     monkeypatch):
    # The certificate reader renders the scheduled tail, so both files'
    # copies of its text are memo hits, and a text in the memo is str()
    # output already: text_to_int returns it before the grammar scan.
    digits, cert = _paper_files(tmp_path, 1, 4)
    capsys.readouterr()
    scanned = []
    is_canonical = _dectext.is_canonical
    monkeypatch.setattr(_dectext, "is_canonical",
                        lambda text: scanned.append(len(text))
                        or is_canonical(text))
    _dectext._memo.clear()
    certs, _ = formats.read_certificate_file(cert)
    values, _ = formats.read_digit_file(digits)
    tail = certs[0].inserted[3]
    assert len(int_to_text(tail)) > INT_FAST_CHARS and tail in values
    assert [n for n in scanned if n > INT_FAST_CHARS] == []


def test_verify_renders_within_the_tail_field_and_falls_back_to_parsing(
        tmp_path, capsys, monkeypatch):
    # Mutated seed-36 certificates verify exactly as they do when every
    # scheduled-tail render fails, and no render passes 4 bits per
    # character of the record's tail field. A tail text that is not the
    # render is parsed, and one that is not str() of its value is refused
    # before any render or parse.
    digits, cert = _paper_files(tmp_path, 36, 6)
    capsys.readouterr()
    payload = json.loads(cert.read_text(encoding="utf-8"))
    tail = payload["blocks"][0]["inserted"][3]
    mutations = {
        "exponent-15000": ("exponent", "15000", 1),
        "exponent-1206": ("exponent", "1206", 1),
        "exponent-1400": ("exponent", "1400", 1),  # 4.5 bits a character
        "exponent--Infinity": ("exponent", float("-inf"), 2),
        "last-digit": ("tail", tail[:-1] + ("1" if tail[-1] != "1" else "2"),
                       1),
        "base-5000-digits": ("base", "7" * 5000, 1),
        "mode-toy": ("mode", "toy", 0),
    }
    # The scheduled tail in other forms int() reads: these are refused.
    forms = {"plus-sign": "+" + tail,
             "underscores": "_".join(tail[i:i + 3]
                                     for i in range(0, len(tail), 3)),
             "arabic-indic": tail.translate(
                 {ord("0") + d: 0x660 + d for d in range(10)})}
    mutations.update({name: ("tail", form, 2) for name, form in forms.items()})
    renders, parses = [], []
    split_text, split_digits = _dectext._split_text, _dectext._digits_to_int
    monkeypatch.setattr(_dectext, "_split_text",
                        lambda n: renders.append(n) or split_text(n))
    monkeypatch.setattr(_dectext, "_digits_to_int",
                        lambda text, *rest: parses.append(text)
                        or split_digits(text, *rest))

    def refuse_render(*args, **kwargs):
        raise ValueError("no render")  # a failed render, which is swallowed

    def verify(key, value):
        block = dict(payload["blocks"][0])
        if key == "tail":
            block["inserted"] = block["inserted"][:3] + [value]
        else:
            block[key] = value
        cert.write_text(json.dumps(dict(payload, blocks=[block])),
                        encoding="utf-8")
        _dectext._memo.clear()
        renders.clear()
        parses.clear()
        code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
        return (code, *capsys.readouterr())

    for name, (key, value, expected_code) in mutations.items():
        outcome = verify(key, value)
        assert outcome[0] == expected_code, name
        field_chars = len(value if key == "tail" else tail)
        assert all(n.bit_length() <= 4 * field_chars for n in renders), name
        if name in forms:
            assert not renders and not parses, name
        if name == "last-digit":
            assert value in parses, name
        with monkeypatch.context() as no_render:
            no_render.setattr(construction, "tail_digit", refuse_render)
            assert verify(key, value) == outcome, name


# One malformed single field of a seed-36 record, and its refusal.
_SINGLE_FIELD_FAULTS = {
    "index": ("01", "not a canonical decimal integer: '01'"),
    "mode": (7, "mode must be a string, got int"),
    "base": ("x", "not a canonical decimal integer: 'x'"),
    "exponent": (1.5, "expected an integer or a decimal string, got 1.5"),
    "block_end": (True, "expected an integer or a decimal string, got True"),
    "prime": ("-", "not a canonical decimal integer: '-'"),
    "digit_bound": ("1_5", "not a canonical decimal integer: '1_5'"),
}


def test_cli_verify_converts_each_certificate_field_once(tmp_path, capsys,
                                                         monkeypatch):
    # The reader converts each of a record's 15 integers once, and converts
    # its single fields before its lists: a record refused for one single
    # field exits 2 without rendering or parsing its 437k-character tail.
    digits, cert = _paper_files(tmp_path, 36, 6)
    capsys.readouterr()
    payload = json.loads(cert.read_text(encoding="utf-8"))
    integers, renders, parses = [], [], []
    for module, name, calls in [(formats, "_integer", integers),
                                (construction, "tail_digit", renders),
                                (_dectext, "_digits_to_int", parses)]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, calls=calls,
                            **kwargs: calls.append(1) or real(*args, **kwargs))

    def verify(block):
        cert.write_text(json.dumps(dict(payload, blocks=[block])),
                        encoding="utf-8")
        _dectext._memo.clear()  # as a fresh process starts
        for calls in (integers, renders, parses):
            calls.clear()
        code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
        return (code, *capsys.readouterr())

    assert verify(payload["blocks"][0])[0] == 0
    assert (len(integers), len(renders), len(parses)) == (15, 1, 0)
    for key, (value, refusal) in _SINGLE_FIELD_FAULTS.items():
        outcome = verify(dict(payload["blocks"][0], **{key: value}))
        assert outcome == (2, "",
                           f"error: bad certificate record: {refusal}\n"), key
        assert (renders, parses) == ([], []), key


def test_cli_verify_exit_2_on_truncated_digits(tmp_path, capsys):
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    main(["construct", "--seed-file", str(seed), "--block-size", "4",
          "--blocks", "1", "--mode", "paper",
          "--out-digits", str(digits), "--out-cert", str(cert)])
    lines = [line for line in digits.read_text().splitlines()
             if not line.startswith("#")]
    digits.write_text("\n".join(lines[:6]) + "\n")
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert),
                 "--digits", str(digits)]) == 2
    assert "too short" in capsys.readouterr().err


def _construct_worked(tmp_path):
    """Digit and certificate files of the worked example in paper mode."""
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    assert main(["construct", "--seed-file", str(_write_seed(tmp_path)),
                 "--block-size", "4", "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(digits), "--out-cert", str(cert)]) == 0
    return digits, cert


def test_cli_verify_exit_2_on_bad_cert(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    digits = _write_seed(tmp_path)
    assert main(["verify", "--cert", str(bad), "--digits", str(digits)]) == 2
    # A block list, a mode or a list field of the wrong JSON type or
    # length, or a format version this reader does not know, is refused
    # the same way.
    digits, cert = _construct_worked(tmp_path)
    arity = {"inserted": 4, "denoms_before": 2}
    for key, value in [("blocks", 5), ("blocks", None),
                       ("mode", 5), ("mode", None),
                       ("format_version", "2"), ("format_version", None),
                       ("inserted", ["1", "2", "555"]),
                       ("inserted", "1,2,555,3"), ("denoms_before", None)]:
        payload = json.loads(cert.read_text(encoding="utf-8"))
        in_block = key not in ("blocks", "format_version")
        record = payload["blocks"][0] if in_block else payload
        record[key] = value
        bad.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = main(["verify", "--cert", str(bad), "--digits", str(digits)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), (key, value)
        assert captured.err.startswith("error: "), (key, value)
        if key in arity:
            assert captured.err == (
                f"error: bad certificate record: {key} must be a list of "
                f"{arity[key]} integers\n"), (key, value)
    # JSON nested past the recursion limit, as a certificate file and as a
    # digit file's header comment: exit 2, not a RecursionError traceback.
    nested = "[" * 200_000 + "]" * 200_000
    bad.write_text(nested, encoding="utf-8")
    result = _verify_child(bad, digits)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: not valid JSON: ")
    lines = digits.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].startswith("# header: ")
    lines[1] = f"# header: {nested}\n"
    digits.write_text("".join(lines), encoding="utf-8")
    for args in (["verify", "--cert", str(cert), "--digits", str(digits)],
                 ["analyze", "cf", "--digits", str(digits), "--strings", "1",
                  "--prefix", "4"],
                 ["construct", "--seed-file", str(digits), "--block-size", "4",
                  "--blocks", "1", "--out-digits", str(tmp_path / "re.cf"),
                  "--out-cert", str(tmp_path / "re.json")]):
        result = subprocess.run(
            [sys.executable, "-m", "abnormal_forge.cli", *args],
            capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout) == (2, ""), args
        assert result.stderr == "error: malformed header comment\n", args


def _edit_ell2(digits, ell2):
    """Put ``ell2`` in place of the worked digit file's sixth digit."""
    lines = digits.read_text(encoding="utf-8").splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    lines[body[5]] = f"{int_to_text(ell2)}\n"
    digits.write_text("".join(lines), encoding="utf-8")


def test_cli_verify_details_render_a_large_prime_by_size(tmp_path, capsys):
    # ell2 = 10**450 makes the stream's q2 a 1,500-bit composite: the table
    # rule refuses it before any test, naming its table by bit size.
    digits, cert = _construct_worked(tmp_path)
    _edit_ell2(digits, 10**450)
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 1
    checks = {c["name"]: c for c in
              json.loads(capsys.readouterr().out)["blocks"][0]["checks"]}
    refused = ("could not certify: baby-step table would need <750-bit "
               "integer> entries (limit 1677721); modulus too large")
    assert checks["prime"]["detail"] == refused
    assert checks["primitive_root"]["detail"] == refused


@pytest.mark.parametrize("bits,seconds", [(32_000, 1.0), (1_000_000, 10.0)])
def test_cli_verify_refuses_a_huge_composite_prime_claim_in_bounded_time(
        tmp_path, bits, seconds):
    # q2 = 65537**j * c, with c a prime >= 2**16 that puts q2 in the class
    # 13 mod 23 the worked stream needs: a composite with no factor below
    # 2**16, so trial division does not settle it. Each Miller-Rabin round
    # on it took minutes (a 32,000-bit q2 verified in ~124 s); sized
    # first, it is refused in the time the stream's arithmetic takes.
    digits, cert = _construct_worked(tmp_path)
    power = 65537 ** ((bits - 18) // 16)
    c = 65537 + (13 * pow(power, -1, 23) - 65537) % 23
    while not nt.is_prime(c):
        c += 23
    q2 = power * c
    _edit_ell2(digits, (q2 - 13) // 23)
    started = time.perf_counter()
    result = _verify_child(cert, digits)
    elapsed = time.perf_counter() - started
    assert result.returncode == 1, result.stderr
    assert elapsed < seconds, f"took {elapsed:.2f}s"
    checks = {c["name"]: c for c in
              json.loads(result.stdout)["blocks"][0]["checks"]}
    refused = (f"could not certify: baby-step table would need "
               f"{brief(math.isqrt(q2 - 2) + 1)} entries (limit 1677721); "
               "modulus too large")
    assert checks["prime"] == {"name": "prime", "passed": False,
                               "required": True, "detail": refused}
    assert checks["primitive_root"]["detail"] == refused


@pytest.mark.parametrize("key,value", [
    ("block_end", 4.7), ("base", 2.5), ("index", True)])
def test_cli_verify_refuses_non_integer_numbers(tmp_path, capsys, key, value):
    # A float or a boolean is not read as the integer it truncates to.
    digits, cert = _construct_worked(tmp_path)
    payload = json.loads(cert.read_text(encoding="utf-8"))
    payload["blocks"][0][key] = value
    cert.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    code = main(["verify", "--cert", str(cert), "--digits", str(digits)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: bad certificate record: expected an "
                            f"integer or a decimal string, got {value!r}\n")


# A seed file whose block-1 prime needs a ~3.6M-entry baby-step table,
# past the default budget's table cap.
HOSTILE_SEED = [1, 1, 1, 4398046511114]


def test_cli_construct_refuses_negative_total_digits(tmp_path, capsys):
    # Refused with the other count checks, before the seed is read or any
    # block is planned: the hostile seed's block 1 is never reached.
    hostile = _write_seed(tmp_path, HOSTILE_SEED, name="hostile.cf")
    digits = tmp_path / "d.cf"
    cert = tmp_path / "c.json"
    for seed_args, total in [(["--seed-rng", "1", "--mode", "toy"], "-2"),
                             (["--seed-file", str(hostile)], "-1")]:
        code = main(["construct", *seed_args, "--block-size", "4",
                     "--blocks", "1", "--total-digits", total,
                     "--out-digits", str(digits), "--out-cert", str(cert)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: --total-digits must be >= 0, "
                                f"got {total}\n")
        assert not digits.exists() and not cert.exists()


def test_cli_construct_refuses_total_digits_below_the_certificates(
        tmp_path, capsys):
    # verify needs block_end + 4 = 8 digits for this one-block run, so a
    # shorter file is refused before the run instead of written.
    seed = _write_seed(tmp_path)
    digits, cert = tmp_path / "d.cf", tmp_path / "c.json"
    argv = ["construct", "--seed-file", str(seed), "--block-size", "4",
            "--blocks", "1", "--out-digits", str(digits),
            "--out-cert", str(cert), "--total-digits"]
    assert main([*argv, "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --total-digits 3 is below the 8 digits "
                            "the certificates need\n")
    assert not digits.exists() and not cert.exists()
    assert main([*argv, "8"]) == 0
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 0


def test_cli_construct_refuses_seeds_outside_64_bits(tmp_path, capsys):
    # -1 and 2**64 would alias 2**64 - 1 and 0 in the 64-bit generator.
    argv = ["construct", "--block-size", "4", "--blocks", "1",
            "--mode", "toy", "--out-digits", str(tmp_path / "d.cf"),
            "--out-cert", str(tmp_path / "c.json"), "--seed-rng"]
    for seed in (-1, 1 << 64):
        assert main([*argv, str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: seed must lie in [0, 2**64), "
                                f"got {seed}\n")
    assert main([*argv, str((1 << 64) - 1)]) == 0


def test_cli_construct_exhausted_seed_file_exits_2(tmp_path, capsys):
    seed = _write_seed(tmp_path, digits=[1, 2])  # too short for one block
    code = main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(tmp_path / "d.cf"),
                 "--out-cert", str(tmp_path / "c.json")])
    assert code == 2
    assert "exhausted" in capsys.readouterr().err


def test_cli_construct_reports_the_whole_seed_file_shortfall(tmp_path,
                                                             capsys):
    # Past the blocks the stream asks the file once for all it lacks:
    # 9000 digits less the 8 that block 1 wrote.
    seed = _write_seed(tmp_path, digits=[*WORKED_SEED, *[1] * 36])
    digits, cert = tmp_path / "d.cf", tmp_path / "c.json"
    code = main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--total-digits", "9000",
                 "--out-digits", str(digits), "--out-cert", str(cert)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: digit file {seed} exhausted: needed "
                            f"8992 more digits at position 4, only 36 "
                            f"remain\n")
    assert not digits.exists() and not cert.exists()


@pytest.mark.parametrize("budget", [None, str(1 << 20)])
def test_cli_construct_echoes_the_search_limit(tmp_path, monkeypatch, capsys,
                                               budget):
    # The prime-search cap is the library's own, with or without a memory
    # budget.
    if budget is not None:
        monkeypatch.setenv("ABNORMAL_FORGE_MEM_BUDGET", budget)
    seed = _write_seed(tmp_path)
    digits, cert = tmp_path / "d.cf", tmp_path / "c.json"
    assert main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "toy",
                 "--out-digits", str(digits), "--out-cert", str(cert)]) == 0
    capsys.readouterr()
    assert read_digit_file(digits)[1]["config"]["artin_limit"] == 100_000
    assert read_certificate_file(cert)[1]["config"]["artin_limit"] == 100_000


def test_cli_verify_applies_the_table_cap_before_factoring(tmp_path, capsys,
                                                         monkeypatch):
    # plan_block refuses a prime whose discrete-log table passes the
    # budget's cap, so verify refuses it too, under the same variable.
    digits, cert = _construct_worked(tmp_path)
    q1, qn = 23, 13  # the worked example's q_next and q_n
    ell2 = (1 << 21) // q1
    while not nt.is_prime(ell2 * q1 + qn):
        ell2 += 1
    q2 = ell2 * q1 + qn
    _edit_ell2(digits, ell2)
    argv = ["verify", "--cert", str(cert), "--digits", str(digits)]

    def prime_details():
        assert main(argv) == 1
        checks = {c["name"]: c for c in
                  json.loads(capsys.readouterr().out)["blocks"][0]["checks"]}
        return checks["prime"]["detail"], checks["primitive_root"]["detail"]

    capsys.readouterr()
    assert prime_details() == (str(q2), f"2 generates mod {q2}")
    monkeypatch.setenv("ABNORMAL_FORGE_MEM_BUDGET", "1024")
    refused = (f"could not certify: baby-step table would need "
               f"{math.isqrt(q2 - 2) + 1} entries (limit 1024); modulus too "
               "large")
    assert prime_details() == (refused, refused)
    # A budget too small to use, or one whose table cap would admit primes
    # past the deterministic Miller-Rabin bound, is a usage error.
    entries = math.isqrt(nt._MR_DETERMINISTIC_BOUND - 2) + 1
    for budget, message in [
            ("12", "memory budget below 1 KiB is unusable"),
            (str(TABLE_ENTRY_BYTES * entries), f"a {entries}-entry table "
             "cap admits primes past the deterministic Miller-Rabin bound "
             "3317044064679887385961981")]:
        monkeypatch.setenv("ABNORMAL_FORGE_MEM_BUDGET", budget)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: bad ABNORMAL_FORGE_MEM_BUDGET: {message}\n")


def _construct_child(tmp_path, *flags):
    digits, cert = tmp_path / "d.cf", tmp_path / "c.json"
    result = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", "construct",
         "--seed-rng", "1", *flags, "--out-digits", str(digits),
         "--out-cert", str(cert)],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_cap_address_space)
    return result, digits, cert


def test_cli_construct_runs_a_huge_block_count_to_its_first_refusal(
        tmp_path):
    # 1 << (blocks - 1) would take 12.5 GB: the count is never formed, and
    # the run stops at block 2 as any multi-block run does.
    result, digits, cert = _construct_child(
        tmp_path, "--block-size", "4", "--blocks", "99999999999")
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: block 2 failed: baby-step table ")
    assert "Traceback" not in result.stderr
    assert len(read_digit_file(digits)[0]) == 12
    assert [c.index for c in read_certificate_file(cert)[0]] == [1]


def test_cli_construct_total_digits_floor_renders_the_count_by_size(
        tmp_path, capsys):
    # The digits 20,000 blocks need pass the int -> str limit; a larger
    # count is refused in the same words, without forming it.
    argv = ["construct", "--seed-rng", "1", "--block-size", "4",
            "--total-digits", "1", "--out-digits", str(tmp_path / "d.cf"),
            "--out-cert", str(tmp_path / "c.json"), "--blocks"]
    for blocks, bits in [("20000", 20002), ("99999999999", 100000000001)]:
        assert main([*argv, blocks]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --total-digits 1 is below the "
                                f"<{bits}-bit integer> digits the "
                                "certificates need\n")
    assert not (tmp_path / "d.cf").exists()


def test_cli_construct_refuses_a_first_block_past_the_budget(tmp_path):
    # Block 1 samples N digits whether or not --total-digits is given; at
    # 18 B a digit, N = 10**11 passes the default 256 MiB budget before
    # any digit is sampled or file written.
    result, digits, cert = _construct_child(
        tmp_path, "--block-size", "100000000000", "--blocks", "1")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == ("error: 100000000004 digits need about "
                             "1800000000072 bytes, past the 268435456-byte "
                             "memory budget\n")
    assert not digits.exists() and not cert.exists()


def test_cli_construct_toy_multi_block_flushes_partial(tmp_path, capsys):
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    code = main(["construct", "--seed-rng", "42", "--block-size", "4",
                 "--blocks", "2", "--mode", "toy",
                 "--out-digits", str(digits), "--out-cert", str(cert)])
    err = capsys.readouterr().err
    assert code == 3
    assert "block 2" in err
    back, header = read_digit_file(digits)
    assert header["partial"] is True
    certs, cert_header = read_certificate_file(cert)
    assert cert_header["partial"] is True
    assert len(certs) == 1  # block 1 completed and is preserved
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 0


def _cap_address_space(limit=1 << 30):
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_cli_construct_default_budget_caps_the_table(tmp_path):
    # With no budget variable set, the hostile seed's block-1 prime is
    # refused on the default budget's table cap before the prime scan. A
    # table of the size it needs takes over 500 MiB, so the child runs
    # under a 512 MiB address-space cap: a default cap that does not hold
    # fails here instead of growing the table.
    seed = _write_seed(tmp_path, HOSTILE_SEED, name="hostile.cf")
    env = {key: value for key, value in os.environ.items()
           if key != "ABNORMAL_FORGE_MEM_BUDGET"}
    result = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", "construct",
         "--seed-file", str(seed), "--block-size", "4", "--blocks", "1",
         "--out-digits", str(tmp_path / "d.cf"),
         "--out-cert", str(tmp_path / "c.json")],
        capture_output=True, text=True, timeout=120, env=env,
        preexec_fn=lambda: _cap_address_space(512 << 20))
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert ("baby-step table would need 3632374 entries (limit 1677721)"
            in result.stderr)


def test_cli_construct_refuses_an_unbounded_power(tmp_path):
    # Sampler seed 14 with ten-digit blocks lands on the prime
    # 50,912,008,093 and an exponent k near 4.3e10, so 2**k would take
    # ~5.4 GB. The budget check refuses it before it is formed: exit 3,
    # partial outputs flushed. The child runs under a 1 GiB address-space
    # cap, so a regression fails here instead of exhausting memory.
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    result = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", "construct",
         "--seed-rng", "14", "--block-size", "10", "--blocks", "1",
         "--mode", "paper", "--out-digits", str(digits),
         "--out-cert", str(cert)],
        capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space)
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert "block 1 failed" in result.stderr
    assert read_digit_file(digits)[1]["partial"] is True
    assert read_certificate_file(cert)[0] == []


def test_cli_analyze_cf(tmp_path, capsys):
    path = tmp_path / "digits.cf"
    path.write_text("".join("1\n" for _ in range(60)), encoding="utf-8")
    code = main(["analyze", "cf", "--digits", str(path),
                 "--strings", "1;2;1,1", "--prefix", "50"])
    records = json.loads(capsys.readouterr().out)
    assert code == 0
    assert records[0]["string"] == [1] and records[0]["ratio"] == 1.0
    assert records[1]["count"] == 0
    assert abs(records[1]["reference"] - 0.16993) < 1e-4
    assert records[2]["count"] == 49


def test_cli_analyze_cf_bad_prefix(tmp_path, capsys):
    path = tmp_path / "digits.cf"
    path.write_text("1\n2\n", encoding="utf-8")
    assert main(["analyze", "cf", "--digits", str(path),
                 "--strings", "1", "--prefix", "50"]) == 2
    # Patterns that do not parse, hold a digit below 1, or are all empty.
    # Long patterns are shortened as every other message shortens text.
    for strings, message in [("1,x", "bad pattern '1,x'"),
                             ("0", "patterns need digits >= 1: '0'"),
                             (";", "no patterns given"),
                             ("x" * 5000,
                              "bad pattern 'xxxxxxxxxxxx...xxxxxxxxxxxx'"),
                             (",".join(["0"] * 5000),
                              "patterns need digits >= 1: "
                              "'0,0,0,0,0,0,...,0,0,0,0,0,0'")]:
        capsys.readouterr()
        assert main(["analyze", "cf", "--digits", str(path),
                     "--strings", strings, "--prefix", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n", strings


def test_readme_cli_block_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    commands = block.replace("\\\n", " ").splitlines()
    parser = _build_parser()
    leaves = _leaf_commands(parser)
    named = set()
    for command in commands:
        words = shlex.split(command)
        assert words[0] == "abnormal-forge", command
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
        named.update(leaf for leaf in leaves
                     if tuple(words[1:1 + len(leaf)]) == leaf)
    # README shows every leaf subcommand, and no command the parser lacks.
    assert named == leaves
    # The CLI is the pipeline: a new leaf needs a deliberate edit here.
    assert leaves == {("construct",), ("verify",), ("analyze", "cf")}
    # README's option paragraph names every construct flag and no other,
    # so a removed flag cannot linger there and a new one needs an edit.
    options = readme.split("`construct` options:", 1)[1].split("\n\n")[0]
    construct = next(action.choices["construct"] for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction))
    flags = {flag for action in construct._actions
             for flag in action.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"`(--[a-z-]+)", options)) == flags


def _leaf_commands(parser, path=()):
    """Word paths, such as ("analyze", "cf"), of the leaf subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {leaf for name, sub in action.choices.items()
                    for leaf in _leaf_commands(sub, (*path, name))}
    return {path}


def test_cli_usage_error_exit_code(capsys):
    assert main(["construct", "--blocks", "1"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["analyze", "base", "--num", "1", "--den", "3",
                 "--base", "2", "--places", "4"]) == 2


def test_cli_rng_needs_total_digits_for_zero_blocks(tmp_path, capsys):
    code = main(["construct", "--seed-rng", "7", "--block-size", "4",
                 "--blocks", "0",
                 "--out-digits", str(tmp_path / "d.cf"),
                 "--out-cert", str(tmp_path / "c.json")])
    assert code == 2
    capsys.readouterr()
    code = main(["construct", "--seed-rng", "7", "--block-size", "4",
                 "--blocks", "0", "--total-digits", "25",
                 "--out-digits", str(tmp_path / "d.cf"),
                 "--out-cert", str(tmp_path / "c.json")])
    assert code == 0
    digits, _ = read_digit_file(tmp_path / "d.cf")
    assert len(digits) == 25


def test_cli_seed_file_writes_every_seed_digit_for_zero_blocks(tmp_path):
    seed = _write_seed(tmp_path, list(range(1, 8)))
    code = main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "0",
                 "--out-digits", str(tmp_path / "d.cf"),
                 "--out-cert", str(tmp_path / "c.json")])
    assert code == 0
    digits, _ = read_digit_file(tmp_path / "d.cf")
    assert digits == list(range(1, 8))


def test_console_entry_point_runs(tmp_path):
    path = tmp_path / "digits.cf"
    path.write_text("1\n2\n1\n1\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", "analyze", "cf",
         "--digits", str(path), "--strings", "1;1,1", "--prefix", "4"],
        capture_output=True, text=True)
    assert result.returncode == 0
    records = json.loads(result.stdout)
    assert [(r["string"], r["count"]) for r in records] == [([1], 3),
                                                           ([1, 1], 1)]


def test_mem_budget_env_is_honored(tmp_path, monkeypatch, capsys):
    # The budget caps plan_block's baby-step table: 200 KiB allows 1280
    # entries, and this seed's first candidate prime needs far more.
    monkeypatch.setenv("ABNORMAL_FORGE_MEM_BUDGET", str(200 * 1024))
    seed = _write_seed(tmp_path, digits=[1000, 1000, 1000, 1000])
    code = main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "toy",
                 "--out-digits", str(tmp_path / "d.cf"),
                 "--out-cert", str(tmp_path / "c.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert "baby-step table would need 1000502 entries (limit 1280)" in err


def test_mem_budget_caps_construct_total_digits(tmp_path, monkeypatch, capsys):
    # An rng seed samples until it has every digit asked for; under the
    # 1 MiB budget 10**6 digits are refused before sampling or writing.
    monkeypatch.setenv("ABNORMAL_FORGE_MEM_BUDGET", str(1 << 20))
    digits, cert = tmp_path / "d.cf", tmp_path / "c.json"
    code = main(["construct", "--seed-rng", "1", "--block-size", "4",
                 "--blocks", "1", "--mode", "toy",
                 "--total-digits", "1000000",
                 "--out-digits", str(digits), "--out-cert", str(cert)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == ("error: 1000000 digits need about 18000000 "
                            "bytes, past the 1048576-byte memory budget\n")
    assert not digits.exists() and not cert.exists()


def test_package_root_loads_no_submodule():
    # Every name is imported from the module that defines it, so importing
    # the package alone loads none of its submodules.
    code = ("import abnormal_forge, sys; print(sorted(m for m in sys.modules "
            "if m.startswith('abnormal_forge.')))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _loaded_after(code: str) -> list[str]:
    """Package submodules and watched stdlib modules loaded by a child."""
    watched = ("dataclasses", "inspect", "fractions", "decimal", "datetime")
    script = (f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in "
              f"sys.modules if m.startswith('abnormal_forge.') "
              f"or m in {watched!r})), file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stderr.splitlines()[-1])


def test_cli_import_loads_only_what_every_subcommand_needs():
    # Each handler imports the modules it runs, so the CLI module alone
    # loads no construction, number theory, formats or heavy stdlib module.
    assert _loaded_after("import abnormal_forge.cli") == [
        "abnormal_forge._dectext", "abnormal_forge.cli",
        "abnormal_forge.errors"]


def test_cli_verify_loads_no_fraction_decimal_datetime_or_radix(tmp_path,
                                                                 capsys):
    # A verify process parses and checks with integers alone: it loads no
    # module that builds a Fraction or stamps a time, and no sampler. A paper tail past
    # 2**2000 is rendered rather than parsed, which loads decimal (about
    # 1.3 ms, against ~130 ms of parsing for seed 36's tail); a toy
    # certificate loads no decimal either.
    digits, cert = _paper_files(tmp_path, 1, 4)
    toy_digits, toy_cert = tmp_path / "toy.cf", tmp_path / "toy.json"
    assert main(["construct", "--seed-rng", "1", "--block-size", "4",
                 "--blocks", "1", "--mode", "toy",
                 "--out-digits", str(toy_digits),
                 "--out-cert", str(toy_cert)]) == 0
    for paths, unloaded in [
            ((cert, digits), ()), ((toy_cert, toy_digits), ("decimal",))]:
        argv = ["verify", "--cert", str(paths[0]), "--digits", str(paths[1])]
        loaded = _loaded_after(
            "from abnormal_forge.cli import main\n"
            f"assert main({argv!r}) == 0")
        assert "abnormal_forge.construction" in loaded
        for name in ("dataclasses", "inspect", "fractions", "datetime",
                     "abnormal_forge.radix", "abnormal_forge.seed") + unloaded:
            assert name not in loaded, (paths[0].name, name)


def test_cli_analyze_cf_loads_no_construction_or_number_theory(tmp_path):
    # analyze cf reads a digit file and counts patterns: certificate records,
    # the number-theory kernel, the constructor and the sampler stay
    # unloaded.
    path = tmp_path / "digits.cf"
    path.write_text("1\n2\n1\n1\n", encoding="utf-8")
    argv = ["analyze", "cf", "--digits", str(path), "--strings", "1;1,1",
            "--prefix", "4"]
    loaded = _loaded_after(
        "from abnormal_forge.cli import main\n"
        f"assert main({argv!r}) == 0")
    assert "abnormal_forge.formats" in loaded
    assert "abnormal_forge.construction" not in loaded
    assert "abnormal_forge.nt" not in loaded
    assert "abnormal_forge.seed" not in loaded


def test_cli_construct_generates_no_record_code(tmp_path):
    # Records are named tuples: building their classes needs no dataclass
    # code generation, so no dataclasses, inspect, dis or ast module.
    argv = ["construct", "--seed-rng", "1", "--block-size", "4",
            "--blocks", "1", "--mode", "paper",
            "--out-digits", str(tmp_path / "d.cf"),
            "--out-cert", str(tmp_path / "c.json")]
    loaded = _loaded_after(
        "from abnormal_forge.cli import main\n"
        f"assert main({argv!r}) == 0")
    assert "abnormal_forge.construction" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


_COUNT_COMPILES = """
import builtins, contextlib, io, json, os, sys, sysconfig
stdlib = os.path.realpath(sysconfig.get_paths()["stdlib"])
compiled = []
real = builtins.compile
def counting(source, filename, *args, **kwargs):
    compiled.append(str(filename))
    return real(source, filename, *args, **kwargs)
builtins.compile = counting
from abnormal_forge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--cert", sys.argv[1], "--digits", sys.argv[2]])
print(json.dumps([code, [os.path.basename(name) for name in compiled
                         if not os.path.realpath(name).startswith(stdlib)]]))
"""


def test_cli_verify_compiles_no_record_field(tmp_path):
    # Each record is one class built from a generated namedtuple, with no
    # annotation string for class creation to compile. With every module
    # compiled from source, verifying the worked files in a fresh process
    # calls compile() once per package module it loads: eight, where string
    # annotations on NamedTuple fields made it 47. Standard-library modules
    # are not counted.
    digits, cert = _construct_worked(tmp_path)
    result = subprocess.run(
        [sys.executable, "-c", _COUNT_COMPILES, str(cert), str(digits)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                 PYTHONPYCACHEPREFIX=str(tmp_path / "pycache")))
    assert result.returncode == 0, result.stderr
    code, compiled = json.loads(result.stdout)
    assert code == 0
    assert len(compiled) <= 12, compiled
    assert all(name.endswith(".py") for name in compiled), compiled


@pytest.mark.parametrize("epoch", ["abc", "1e3", "99999999999999999999",
                                   "253402300800", "-62135596801"])
def test_bad_source_date_epoch_is_a_usage_error(epoch, tmp_path):
    digits, cert = tmp_path / "d.cf", tmp_path / "c.json"
    result = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", "construct",
         "--seed-rng", "1", "--block-size", "4", "--blocks", "1",
         "--mode", "toy", "--out-digits", str(digits),
         "--out-cert", str(cert)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, SOURCE_DATE_EPOCH=epoch))
    assert result.returncode == 2
    assert result.stderr.startswith("error: bad SOURCE_DATE_EPOCH: ")
    assert "Traceback" not in result.stderr and result.stdout == ""
    assert not digits.exists() and not cert.exists()


def test_multi_block_construct_fails_fast_with_partial_outputs(tmp_path):
    # Block 2's modulus q1 has 26,483 bits, so every prime the scan could
    # find needs a baby-step table past the budget: the block is refused
    # before the scan instead of testing candidates of that size for hours.
    digits, cert = tmp_path / "d.cf", tmp_path / "c.json"
    result = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", "construct",
         "--seed-rng", "3", "--block-size", "4", "--blocks", "2",
         "--mode", "toy", "--out-digits", str(digits),
         "--out-cert", str(cert)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 3
    assert result.stderr.startswith(
        "error: block 2 failed: baby-step table would need <13242-bit "
        "integer> entries (limit 1677721); modulus too large\n")
    certs, header = read_certificate_file(cert)
    assert header["partial"] is True and [c.index for c in certs] == [1]
    written, digit_header = read_digit_file(digits)
    assert digit_header["partial"] is True and len(written) == 12
