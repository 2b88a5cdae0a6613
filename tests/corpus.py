"""The tests' object corpus: `models/corpus_n1.json` and `corpus_n2.json`,
loaded like any model file, and the examples the acceptance criteria
name, which are objects of it."""
import functools
import os

from jetlift.model import load_model

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


@functools.cache
def _model(n):
    return load_model(os.path.join(MODELS, f"corpus_n{n}.json"))


def standard_corpus(n):
    """The suite inputs of `models/corpus_n<n>.json`, in fresh lists."""
    return _model(n).suite_inputs()


def torsion_free_example(n=1):
    """R = q d/dq (x) dq (n=1) or diag(q1, q2) (n=2); vanishing torsion."""
    return standard_corpus(n).tensors[0]


def torsion_example():
    """R = q d/dq (x) dq + t d/dq (x) dt on n=1; nonzero torsion but
    vanishing Haantjes tensor."""
    return standard_corpus(1).tensors[1]


def dn_example_tensor():
    """The n=2 tensor obtained by pushing diag(u, v+3) in hidden
    coordinates (u, v) through q1 = u + t*v, q2 = v."""
    return standard_corpus(2).tensors[1]
