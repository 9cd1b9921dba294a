import hashlib

import pytest

from abnormal_forge.cli import main

from conftest import WORKED_SEED

# sha256 of the digit file, the certificate file and verify's stdout for
# one `construct` + `verify` round trip each, run in a temporary cwd with
# relative paths under SOURCE_DATE_EPOCH=0. These pin today's bytes across
# refactors. The run header carries the package version, so a version bump
# changes every digest here; the construction itself must not.
GOLDEN = [
    (["--seed-file", "seed.cf"], "paper",
     ("4be221e9780058f2996ffcc7ac849aace524b4b5a76f541098812e55ce303bcc",
      "0b75293bec8a0f7dda4091039139161e88b6a0befda4d9febd2f73ec2d29b296",
      "ebcf3a54bba1194ccffc037c45c8cbc10c37688cab97f726e5872bbc34e54fee")),
    (["--seed-file", "seed.cf"], "toy",
     ("d5bf4f12506c8654681580348b01aeecffb261f690cd8dbaff5ae4e8bc6c7b68",
      "1db53f41867d83c09293ab46f9059723749a230b58b0c2d66e76b2602ce1351a",
      "76490aad1166d2b4dea05a7d1faca76add5cda7eab4da5054f7b6f8cc49db58e")),
    (["--seed-file", "seed.cf"], "relaxed:2",
     ("d25555076d713e50b9b00b8d0720cffe4682748af1990fa264d77473ffad2c32",
      "b16ce0046cdf9290ae8ca344b94a59a35da5e0d0a3d93743dd1e78a57e7e9d2e",
      "69b0811e068d7c8a7a43fdd8e67053f03a5782f945285d3965123dbfa433bc7c")),
    # An 18,226-bit tail, past the 4300-digit int() limit.
    (["--seed-rng", "1"], "paper",
     ("f1cca1ab92631ae2f302e22a699327645e6ab71b7556ac0b6eae54d055fc5b94",
      "4a5e62ecca212f383db98bbe4ab825853de0f7de6f33237a8cdc9454b59609d8",
      "a618fb834eb7ba47c2181bee30368d21aaa72f4e1c49b4c7764cb109dee3cd52")),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed_args,mode,expected", GOLDEN)
def test_construct_and_verify_bytes_are_pinned(seed_args, mode, expected,
                                               tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    (tmp_path / "seed.cf").write_text("".join(f"{d}\n" for d in WORKED_SEED),
                                      encoding="utf-8")
    assert main(["construct", *seed_args, "--block-size", "4",
                 "--blocks", "1", "--mode", mode,
                 "--out-digits", "out.cf", "--out-cert", "out.json"]) == 0
    capsys.readouterr()
    assert main(["verify", "--cert", "out.json", "--digits", "out.cf"]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    digests = (_sha256((tmp_path / "out.cf").read_bytes()),
               _sha256((tmp_path / "out.json").read_bytes()),
               _sha256(report))
    assert digests == expected


# (argv, exit code, sha256 of stdout, sha256 of stderr when the code is
# not 0) for the analysis commands and an exhausted search, run in-process
# in a temporary cwd. "seed.cf" holds the worked seed, and "y.cf" is its
# paper-mode digit file, as README's `construct ... --out-digits y.cf`
# writes it.
COMMANDS = [
    (["analyze", "cf", "--digits", "y.cf", "--strings", "1;2;1,1",
      "--prefix", "8"], 0,
     "2d8315cafc3c0e570e7437c3753f404b0e030f00f06ca3d3edaaeff674ebec34", None),
    # A prime search that runs out of candidates: SearchExhausted, exit 3.
    (["construct", "--seed-file", "seed.cf", "--block-size", "4",
      "--blocks", "1", "--search-limit", "1", "--out-digits", "out.cf",
      "--out-cert", "out.json"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "51b0d38088ceb0765114913aede2e22d3ebe2651194bd920b3e7aa2b485ea298"),
]


@pytest.mark.parametrize("argv,code,out_sha,err_sha", COMMANDS, ids=[
    "analyze-cf", "construct-search-exhausted"])
def test_command_bytes_are_pinned(argv, code, out_sha, err_sha,
                                  tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    (tmp_path / "seed.cf").write_text("".join(f"{d}\n" for d in WORKED_SEED),
                                      encoding="utf-8")
    if "y.cf" in argv:
        assert main(["construct", "--seed-file", "seed.cf", "--block-size",
                     "4", "--blocks", "1", "--out-digits", "y.cf",
                     "--out-cert", "y.json"]) == 0
        capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert _sha256(captured.out.encode("utf-8")) == out_sha
    if code:
        assert _sha256(captured.err.encode("utf-8")) == err_sha


# sha256 of `--help` for the top level and every leaf subcommand, at 80
# columns (argparse wraps to the terminal width, read from COLUMNS). These
# pin the help text across changes to how the parser gets its defaults.
HELP = [
    ([], "cc11fa1a23391f43e013cb07a0129ab659a0becb4fea8d10036ec9c8e3cc5e80"),
    (["construct"],
     "cbcb175939f0747b22e7c370b0de6d669db393e27bc23b73a860920401769228"),
    (["verify"],
     "f819dd01633a8eb89621b57a3f5c9ed1d7e73d3d930ba6f9819f74a534fd10ee"),
    (["analyze", "cf"],
     "f7187ab268a333abc8b0510dc0856e471b0b01f0acbd57832217b36e5b722445"),
]


@pytest.mark.parametrize("argv,out_sha", HELP,
                         ids=[" ".join(argv) or "top" for argv, _ in HELP])
def test_help_bytes_are_pinned(argv, out_sha, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*argv, "--help"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == out_sha
