"""Golden digests of the seeded reports.

Every performance change must leave the seeded reports byte for byte as
they were. This test pins that: it hashes (sha256) the stdout of eight
seeded CLI runs and compares each digest with the value captured before
the last change that was meant to keep them. The two runs on the tests'
corpus (models/corpus_n1.json, corpus_n2.json) have the digests of
`run_all_suites` on the Python corpus those files replaced, so they also
pin that the files hold the same objects. One more digest covers the
printed trees, which no report shows: the stdout and exit code of `print`
and of every `lift --kind` of every object of n1 and n2, with and without
`--json`. A last one covers the Darboux-Nijenhuis report of the n = 3
known-answer family (tests/dn_family.py), whose eigenvectors, unlike
R_dn's, are not exact: it sees a last-bit change in the eigenvalue
perturbation. The family's chain-rule sums have at most two nonzero terms,
which add exactly in either order, so one more digest covers a dense chart
(tests/dn_family.py `dn_dense`) whose sums round: it sees a strided matmul
stack in the eigenvalue perturbation and a reordered chain rule in
`fields.compose`. It moved once, when a composed gradient became the chain
rule through the composed field's tree (procedural fields as call nodes):
the dn.eigen_locality residual changed by 4.4e-16, every check id, pass
flag and worst point stayed. The verify-n2 and the four darboux-n2 digests
moved once, when `pn_check` came to judge the Magri-Morosi concomitant on
the coordinate basis of phase space rather than on the lifted probe basis:
only the concomitant residuals changed (n2 theorem3.concomitant[R0]
7.1e-15 -> 4.4e-16 and [R1] 8.9e-16 -> 0 at seed 0, darboux
pn.magri_morosi_residual 7.1e-15 -> 4.4e-16), every verdict, check id,
pass flag and worst point stayed. The four darboux-n2 digests and both
n = 3 digests moved again when the eigenvalue chart and its Newton
inverse came to give exact second derivatives in place of central
differences of the gradient: every check id and pass flag stayed, and
the residuals that take a second derivative fell (at seed 0, darboux
dn.eigen_locality 2.2e-11 -> 0, whose worst point is then empty, and
dn.lift_diagonal 7.2e-11 -> 1.8e-15; dn_dense(3) dn.lift_diagonal
2.1e-7 -> 2.7e-12).

The digests also pin the numpy build and the platform libm the reports
were computed with (numpy 2.4 on x86-64 Linux with glibc); on another
platform the last bits of some residuals, and so the digests, may differ.
A change that alters a report on purpose updates the digest in the same
change and says why.
"""
import hashlib
import json
import os

import pytest

from dn_family import dn_dense, dn_family
from jetlift import build_dn_transform, verify_dn
from jetlift.cli import LIFT_KINDS, main

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")

GOLDEN = [
    (["verify", "--model", os.path.join(MODELS, "n1.json"),
      "--suite", "all", "--json", "--seed", "0"],
     "4d66f4adba49f3ebb0af586cbecaae77a15530f24b6779ff76d224fe0c04bf90"),
    (["verify", "--model", os.path.join(MODELS, "n2.json"),
      "--suite", "all", "--json", "--seed", "0"],
     "dce6d4708c034544146f7032481ae316723d6ce750cb804a1dfb1dbfa79be1db"),
    (["darboux", "--model", os.path.join(MODELS, "n2.json"),
      "--object", "R_dn", "--json", "--seed", "0"],
     "1bc5a79ccbfbf8cb88c535df3f1e987de610b3353407852710824b39278b49af"),
    (["darboux", "--model", os.path.join(MODELS, "n2.json"),
      "--object", "R_dn", "--json", "--seed", "1"],
     "41472f2b335a8d6336e6403cdc5b3fa617e865483fd8af18dc4e828dfb90e698"),
    (["darboux", "--model", os.path.join(MODELS, "n2.json"),
      "--object", "R_dn", "--json", "--seed", "2"],
     "40fb79ffb4157a5c505da7fc86cf3b314c508be16758e4ad436a2712e3e6c1a6"),
    (["darboux", "--model", os.path.join(MODELS, "n2.json"),
      "--object", "R_dn", "--json", "--seed", "3"],
     "8a4b39c6a8345ce1b44b0b780293f25b75eaf4e371dcd32b19542f4da6a3f867"),
    (["verify", "--model", os.path.join(MODELS, "corpus_n1.json"),
      "--suite", "all", "--json", "--seed", "0"],
     "7cadc2a1124b9d209523f2906561e2b6d75d6ccf69b3acd11e5c56d29d3b1da4"),
    (["verify", "--model", os.path.join(MODELS, "corpus_n2.json"),
      "--suite", "all", "--json", "--seed", "0"],
     "fafe36925c4a58b6e177f84977c81654576f8aa1fa8685fe5e2ea4cb606d5b08"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=["verify-n1", "verify-n2", "darboux-n2",
                              "darboux-n2-seed1", "darboux-n2-seed2",
                              "darboux-n2-seed3", "verify-corpus-n1",
                              "verify-corpus-n2"])
def test_seeded_report_digest(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PRINT_LIFT_DIGEST = ("97315f21427fc363ec2ffb671c0c66fc"
                     "27db1bc0133e9443ab85b1869934e41f")


def print_lift_commands():
    for model in ("n1.json", "n2.json"):
        path = os.path.join(MODELS, model)
        with open(path) as fh:
            names = json.load(fh)["objects"]
        for name in names:
            for cmd in [["print"]] + [["lift", "--kind", k] for k in LIFT_KINDS]:
                for as_json in ([], ["--json"]):
                    yield cmd[:1] + ["--model", path, "--object", name] \
                        + cmd[1:] + as_json


def test_printed_trees_digest(capsys):
    digest = hashlib.sha256()
    for argv in print_lift_commands():
        code = main(argv)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == PRINT_LIFT_DIGEST


DN_FAMILY_N3_DIGEST = ("4a568a59e458d29df4d8bc4df19511a5"
                       "fc147621c962f9d3759d0ba9fd1d69f4")


def test_dn_family_n3_report_digest():
    R, _ = dn_family(3)
    report = verify_dn(R, build_dn_transform(R), seed=0)
    assert report.passed
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == DN_FAMILY_N3_DIGEST


DN_DENSE_N3_DIGEST = ("f5ccb4d34f5975b27343ecc7cccd618f"
                      "c1639bebc29f303e5de706f578b7826c")


def test_dn_dense_n3_report_digest():
    R = dn_dense(3)
    report = verify_dn(R, build_dn_transform(R), seed=0)
    assert report.passed
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == DN_DENSE_N3_DIGEST
