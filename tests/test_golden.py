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
