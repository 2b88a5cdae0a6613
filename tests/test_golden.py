"""Golden digests of the seeded reports.

Every performance change must leave the seeded reports byte for byte as
they were. This test pins that: it hashes (sha256) the stdout of six
seeded CLI runs and compares each digest with the value captured before
the last change that was meant to keep them. One more digest covers the
printed trees, which no report shows: the stdout and exit code of `print`
and of every `lift --kind` of every object of n1 and n2, with and without
`--json`.

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

from jetlift.cli import LIFT_KINDS, main

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")

GOLDEN = [
    (["verify", "--model", os.path.join(MODELS, "n1.json"),
      "--suite", "all", "--json", "--seed", "0"],
     "4d66f4adba49f3ebb0af586cbecaae77a15530f24b6779ff76d224fe0c04bf90"),
    (["verify", "--model", os.path.join(MODELS, "n2.json"),
      "--suite", "all", "--json", "--seed", "0"],
     "60ea8e6c56d0f5d25c5de52c4174f8de99b3e7999095bfb823f132994b0749a5"),
    (["darboux", "--model", os.path.join(MODELS, "n2.json"),
      "--object", "R_dn", "--json", "--seed", "0"],
     "5f6ed23afd30f3f0e5f21b9a5a2221112ab8cacc75c784df90a0f58e147f1396"),
    (["darboux", "--model", os.path.join(MODELS, "n2.json"),
      "--object", "R_dn", "--json", "--seed", "1"],
     "67a15bba1a0f21d6a3dd26798a2378233f31c95d85a315cb02265756e95409e0"),
    (["darboux", "--model", os.path.join(MODELS, "n2.json"),
      "--object", "R_dn", "--json", "--seed", "2"],
     "24eb7b89c402b19bd8c99a820ea457e419b18bfa41af889ab76d00143aeea270"),
    (["darboux", "--model", os.path.join(MODELS, "n2.json"),
      "--object", "R_dn", "--json", "--seed", "3"],
     "d8ec70b79f412024410645f1464e7d6b35fedbee1d04cc1df5e61f07a87e4d80"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=["verify-n1", "verify-n2", "darboux-n2",
                              "darboux-n2-seed1", "darboux-n2-seed2",
                              "darboux-n2-seed3"])
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
