import gc
import json
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abnormal_forge import (BlockCertificate, ConstructionConfig, Mode,
                            RngDigitSource, _dectext, construct,
                            verify_certificate)
from abnormal_forge._dectext import (INT_FAST_CHARS, TEXT_FAST_BITS,
                                     int_to_text, text_to_int)
from abnormal_forge.cli import main
from abnormal_forge.errors import InputFormatError
from abnormal_forge.formats import (_cert_from_json, _cert_to_json,
                                    read_certificate_file, read_digit_file,
                                    run_header, write_certificate_file,
                                    write_digit_file)
from abnormal_forge.seed import parse_digit_file

from conftest import WORKED_SEED, lifted_int_limit


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
    # Large values sit among short ones, inside and across the 4096-line
    # write chunks; the bytes are those of str() either way.
    path = tmp_path / "mixed.cf"
    big = [(1 << TEXT_FAST_BITS) + 7, 3**5000, (1 << 40_000) + 1]
    digits = [5] * 4095 + [big[0], 2, big[1]] + [9] * 5000 + [big[2]]
    write_digit_file(path, digits)
    with lifted_int_limit():
        body = "".join(f"{d}\n" for d in digits)
    text = path.read_text(encoding="utf-8")
    assert text == "# abnormal-forge digit file v1\n" + body
    assert read_digit_file(path) == (digits, None)


def test_certificate_round_trip_preserves_huge_integers(tmp_path, worked_number):
    path = tmp_path / "cert.json"
    header = run_header({"blocks": 1}, {"kind": "list"})
    write_certificate_file(path, worked_number.certificates, header)
    certs, parsed = read_certificate_file(path)
    assert certs == list(worked_number.certificates)
    assert certs[0].inserted[3] == (1 << 225) + 1
    assert parsed["partial"] is False


def test_certificate_round_trip_past_str_limit(tmp_path, worked_number):
    import dataclasses
    cert = dataclasses.replace(
        worked_number.certificates[0],
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
    with lifted_int_limit():
        expected = int(text)
    assert text_to_int(text) == expected


def _int_outcome(text):
    with lifted_int_limit():
        try:
            return int(text)
        except ValueError as exc:
            return str(exc)


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
def test_noncanonical_text_parses_as_int_does(parts):
    # Only the int() oracle lifts the digit limit; the readers run under
    # the interpreter's default and leave it as it was.
    limit = sys.get_int_max_str_digits()
    text = "".join(piece * count for piece, count in parts)
    expected = _int_outcome(text)
    try:
        got = text_to_int(text)
    except ValueError as exc:
        got = str(exc)
    assert got == expected
    # The digit-file reader strips each line and rejects values below 1.
    stripped = text.strip()
    line_value = _int_outcome(stripped)
    if stripped and not stripped.startswith("#"):
        if isinstance(line_value, str) or line_value < 1:
            with pytest.raises(InputFormatError):
                parse_digit_file(iter([text]))
        else:
            assert parse_digit_file(iter([text])) == [line_value]
    # The certificate reader turns a failed value into InputFormatError
    # that carries int()'s message.
    record = _cert_to_json(_WORKED_CERT)
    record["prime"] = text
    if isinstance(expected, str):
        with pytest.raises(InputFormatError) as failed:
            _cert_from_json(record)
        assert str(failed.value) == f"bad certificate record: {expected}"
    else:
        assert _cert_from_json(record).prime == expected
    assert sys.get_int_max_str_digits() == limit


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
    text = int_to_text(value)
    assert int_to_text(value + 0) is text
    other = text[:-1] + ("1" if text[-1] != "1" else "2")
    with lifted_int_limit():
        expected = int(other)
    assert expected != value and text_to_int(other) == expected
    assert text_to_int(text) == value
    assert text_to_int("+" + text) == value
    assert text_to_int("-" + text) == -value
    assert text_to_int(text + " ") == value
    assert text_to_int(text.replace("0", "\u0660")) == value
    # Below the split thresholds nothing is cached.
    _dectext._split_text.cache_clear()
    _dectext._split_int.cache_clear()
    small = 1 << 1900  # 572 digits
    assert text_to_int(int_to_text(small)) == small
    assert _dectext._split_text.cache_info().currsize == 0
    assert _dectext._split_int.cache_info().currsize == 0


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
    ("relaxed:2", ["--seed-rng", "7"], "4"),
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
    # Only a library caller's tail offset can put one in a header: writing
    # it raises before the digit file is opened.
    config = ConstructionConfig(block_size=4, blocks=1, mode=Mode.parse("toy"),
                                tail_offset=10**5000)
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


@pytest.mark.parametrize("scale,message", [
    ("1/0", "divides by zero"), ("1e100000000", "has an exponent")])
def test_cli_refuses_hostile_relaxed_scales(tmp_path, capsys, scale, message):
    # Fraction("1e100000000") would run for well over 30 s; "1/0" raised
    # ZeroDivisionError, a traceback.
    seed = _write_seed(tmp_path)
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    construct_args = ["construct", "--seed-file", str(seed),
                      "--block-size", "4", "--blocks", "1",
                      "--out-digits", str(digits), "--out-cert", str(cert)]
    assert main([*construct_args, "--mode", f"relaxed:{scale}"]) == 2
    assert message in capsys.readouterr().err
    child = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", *construct_args,
         "--mode", f"relaxed:{scale}"],
        capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout) == (2, "")
    assert message in child.stderr and "Traceback" not in child.stderr

    assert main([*construct_args, "--mode", "paper"]) == 0
    payload = json.loads(cert.read_text(encoding="utf-8"))
    payload["blocks"][0]["mode"] = f"relaxed:{scale}"
    cert.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 2
    assert message in capsys.readouterr().err
    result = _verify_child(cert, digits)
    assert (result.returncode, result.stdout) == (2, "")
    assert message in result.stderr and "Traceback" not in result.stderr


def _paper_files(tmp_path, seed, block_size):
    digits = tmp_path / f"paper-{seed}.cf"
    cert = tmp_path / f"paper-{seed}.json"
    assert main(["construct", "--seed-rng", str(seed),
                 "--block-size", str(block_size), "--blocks", "1",
                 "--mode", "paper", "--out-digits", str(digits),
                 "--out-cert", str(cert)]) == 0
    return digits, cert


def test_cli_verify_reuses_a_parse_only_for_identical_text(tmp_path, capsys):
    # Sampler seed 1: a 5487-digit tail, parsed by halves in both files.
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
        report = json.loads(capsys.readouterr().out)
        return code, {c["name"] for b in report["blocks"]
                      for c in b["checks"] if c["passed"] is False}

    other = tail[:-1] + ("1" if tail[-1] != "1" else "2")
    for cert_tail, digit_line in ((other, tail), (tail, other)):
        code, failed = verify(cert_tail, digit_line)
        assert code == 1 and "inserted_digits" in failed
    for form in forms:
        assert verify(form, tail) == (0, set()), form[:5]
        assert verify(tail, form) == (0, set()), form[:5]
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

    Clears both caches, then records the int each rendering starts from
    and the digit text each parse starts from.
    """
    _dectext._split_text.cache_clear()
    _dectext._split_int.cache_clear()
    rendered, parsed = [], []
    depth = [0]

    def spy(real, record):
        def wrapper(*args):
            if depth[0] == 0:
                record(args)
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(_dectext, "_to_decimal", spy(
        _dectext._to_decimal, lambda args: rendered.append(args[0])))
    monkeypatch.setattr(_dectext, "_digits_to_int", spy(
        _dectext._digits_to_int,
        lambda args: parsed.append(args[0][args[1]:args[2]])))
    return rendered, parsed


@pytest.mark.parametrize("seed,block_size,large_fields", [
    (36, 6, 1),   # a 1,452,026-bit tail; every other field is short
    (12, 6, 3),   # k = 2102: ell3 and q3 are past 2**2000 as well
])
def test_cli_converts_each_large_value_once(tmp_path, capsys, split_calls,
                                            seed, block_size, large_fields):
    rendered, parsed = split_calls
    digits, cert = _paper_files(tmp_path, seed, block_size)
    tail_bits = int(capsys.readouterr().out.split("tail_bits=")[1].split()[0])
    assert len(rendered) == len(set(rendered)) == large_fields
    assert max(rendered).bit_length() == tail_bits

    # verify in a fresh process: clear the caches as an exit would.
    _dectext._split_text.cache_clear()
    _dectext._split_int.cache_clear()
    rendered.clear()
    assert main(["verify", "--cert", str(cert), "--digits", str(digits)]) == 0
    capsys.readouterr()
    assert rendered == []
    assert len(parsed) == len(set(parsed)) == large_fields
    assert text_to_int(max(parsed, key=len)).bit_length() == tail_bits


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
    # A block list or a mode of the wrong JSON type is refused the same way.
    digits, cert = _construct_worked(tmp_path)
    for key, value in [("blocks", 5), ("blocks", None),
                       ("mode", 5), ("mode", None)]:
        payload = json.loads(cert.read_text(encoding="utf-8"))
        record = payload if key == "blocks" else payload["blocks"][0]
        record[key] = value
        bad.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = main(["verify", "--cert", str(bad), "--digits", str(digits)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), (key, value)
        assert captured.err.startswith("error: "), (key, value)


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


def test_cli_construct_refuses_negative_total_digits(tmp_path, capsys):
    digits = tmp_path / "d.cf"
    cert = tmp_path / "c.json"
    code = main(["construct", "--seed-rng", "1", "--block-size", "4",
                 "--blocks", "1", "--mode", "toy", "--total-digits", "-2",
                 "--out-digits", str(digits), "--out-cert", str(cert)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: prefix length must be >= 0, got -2\n"
    assert not digits.exists() and not cert.exists()


def test_cli_construct_exhausted_seed_file_exits_2(tmp_path, capsys):
    seed = _write_seed(tmp_path, digits=[1, 2])  # too short for one block
    code = main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(tmp_path / "d.cf"),
                 "--out-cert", str(tmp_path / "c.json")])
    assert code == 2
    assert "exhausted" in capsys.readouterr().err


def test_cli_construct_toy_multi_block_flushes_partial(tmp_path, capsys):
    digits = tmp_path / "y.cf"
    cert = tmp_path / "y.json"
    code = main(["construct", "--seed-rng", "42", "--block-size", "4",
                 "--blocks", "2", "--mode", "toy", "--search-limit", "500",
                 "--out-digits", str(digits), "--out-cert", str(cert)])
    err = capsys.readouterr().err
    assert code == 3
    assert "block 2" in err
    back, header = read_digit_file(digits)
    assert header["partial"] is True
    certs, cert_header = read_certificate_file(cert)
    assert cert_header["partial"] is True
    assert len(certs) == 1  # block 1 completed and is preserved


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


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


def test_cli_analyze_base_repeating_tail(capsys):
    code = main(["analyze", "base", "--num", "23", "--den", "32768",
                 "--base", "2", "--places", "225", "--symbol", "1"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    digits = record["digits"]
    assert len(digits) == 225
    assert set(digits[15:]) == {"1"}
    assert record["longest_run"] == 210
    assert record["differing"] <= 15


def test_cli_analyze_base_wide_base_uses_commas(capsys):
    code = main(["analyze", "base", "--num", "1", "--den", "3",
                 "--base", "16", "--places", "4",
                 "--convention", "terminating"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["digits"] == "5,5,5,5"  # 1/3 = 0x0.5555...
    assert record["symbol"] == 15


def test_cli_analyze_base_rejects_zero_denominator(capsys):
    assert main(["analyze", "base", "--num", "1", "--den", "0",
                 "--base", "2", "--places", "5"]) == 2


def test_cli_nt_surface(capsys):
    assert main(["nt", "dlog", "--g", "2", "--h", "23", "--p", "59"]) == 0
    assert capsys.readouterr().out.strip() == "15"
    assert main(["nt", "lenstra", "--g", "8", "--f", "3", "--a", "1"]) == 0
    assert "finite condition=1 q=3" in capsys.readouterr().out
    assert main(["nt", "artin", "--g", "2", "--f", "23", "--a", "13"]) == 0
    assert "ell=2 p=59" in capsys.readouterr().out
    assert main(["nt", "kronecker", "--d", "5", "--n", "11"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["nt", "primroot", "--g", "2", "--p", "11"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["nt", "crt", "--constraint", "5:3", "--constraint", "7:2"]) == 0
    assert capsys.readouterr().out.strip() == "23"
    # Moduli past the int<->str digit limit, and a solution twice as long.
    m1, m2 = 10**5000 + 1, 10**5000 + 3
    with lifted_int_limit():
        texts = [str(m1), str(m2), str(m1 * m2 - 1)]
    assert main(["nt", "crt", "--constraint", f"{texts[0]}:{texts[0][:-1]}0",
                 "--constraint", f"{texts[1]}:{texts[1][:-1]}2"]) == 0
    assert capsys.readouterr().out.strip() == texts[2]


def test_cli_nt_domain_error_exit_codes(capsys):
    assert main(["nt", "dlog", "--g", "2", "--h", "0", "--p", "11"]) == 2
    assert main(["nt", "lenstra", "--g", "4", "--f", "3", "--a", "1"]) == 2


def test_cli_usage_error_exit_code(capsys):
    assert main(["construct", "--blocks", "1"]) == 2
    assert main(["no-such-command"]) == 2


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


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "abnormal_forge.cli", "nt", "dlog",
         "--g", "2", "--h", "3", "--p", "11"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "8"


def test_mem_budget_env_is_honored(monkeypatch, capsys):
    monkeypatch.setenv("ABNORMAL_FORGE_MEM_BUDGET", str(200 * 1024))
    code = main(["nt", "dlog", "--g", "5", "--h", "7",
                 "--p", "100000007"])
    err = capsys.readouterr().err
    assert code == 3
    assert "table" in err
