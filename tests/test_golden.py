import hashlib
from pathlib import Path

import pytest

from abnormal_forge import _dectext, nt
from abnormal_forge.cli import MEM_BUDGET_ENV, main

from conftest import WORKED_SEED

# sha256 of the digit file, the certificate file and verify's stdout for
# one `construct` + `verify` round trip each, run in a temporary cwd with
# relative paths under SOURCE_DATE_EPOCH=0. These pin today's bytes across
# refactors. The run header carries the package version, so a version bump
# changes every digest here; the construction itself must not.
GOLDEN = [
    (["--seed-file", "seed.cf"], "paper",
     ("29efe55163ed3a0b90e3edbaa67b16ec6630903832eac753feae14c729adeaa1",
      "a41338a51d3b8737507891496342dc2628d6edbcf1b6167e5220ac7aeab05913",
      "ebcf3a54bba1194ccffc037c45c8cbc10c37688cab97f726e5872bbc34e54fee")),
    (["--seed-file", "seed.cf"], "toy",
     ("da852d5d0d1bc6dc06e93eb945f638f0bbdccbe9ecbd59ff76a51a2e456ecece",
      "1f7eb3786a9ed0391ad9ac62665dc28ce73c2ed91babfcd2e47af25a2e672c0c",
      "76490aad1166d2b4dea05a7d1faca76add5cda7eab4da5054f7b6f8cc49db58e")),
    # An 18,226-bit tail, past the 4300-digit int() limit.
    (["--seed-rng", "1"], "paper",
     ("bafee1d90ed7306a4dde252c2748a512233a8ea114f32aad4fc3588b8f07fc63",
      "7200cf2194743bd52beaaea9d18ae5290667a8201499fe253e7fa8d75c811638",
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


# The frozen format-v1 corpus (tests/data/v1/README.md): files construct
# once wrote, by name, with the exit code verify gives for each.
V1_CORPUS = {"worked-paper": 0, "worked-toy": 0, "rng1-paper": 0,
             "rng42-toy-partial": 0}


@pytest.mark.parametrize("name", sorted(V1_CORPUS))
def test_v1_corpus_verifies_as_frozen(name, monkeypatch, capsys):
    data = Path(__file__).parent / "data" / "v1"
    monkeypatch.delenv(MEM_BUDGET_ENV, raising=False)
    _dectext._memo.clear()  # as a fresh process starts
    assert main(["verify", "--cert", str(data / f"{name}.json"),
                 "--digits", str(data / f"{name}.cf")]) == V1_CORPUS[name]
    expected = (data / f"{name}.verify.out").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


# (argv, exit code, sha256 of stdout, sha256 of stderr when the code is
# not 0) for the analysis commands and an exhausted search, run in-process
# in a temporary cwd. "seed.cf" holds the worked seed, and "y.cf" is its
# paper-mode digit file, as README's `construct ... --out-digits y.cf`
# writes it. The commands run with a one-candidate prime search.
COMMANDS = [
    (["analyze", "cf", "--digits", "y.cf", "--strings", "1;2;1,1",
      "--prefix", "8"], 0,
     "2d8315cafc3c0e570e7437c3753f404b0e030f00f06ca3d3edaaeff674ebec34", None),
    # A prime search that runs out of candidates: SearchExhausted, exit 3.
    (["construct", "--seed-file", "seed.cf", "--block-size", "4",
      "--blocks", "1", "--out-digits", "out.cf", "--out-cert", "out.json"], 3,
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
    monkeypatch.setattr(nt, "ARTIN_LIMIT", 1)
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
     "425cb2c7834db3e681ce60ad3af2b782ef88009c30f3398098e2bb3a36861bec"),
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
