"""The non-raising front the tests evaluate fields through: the values of a
list of fields at a point array in one Batch, and that Batch, whose
rejected rows and errors a test compares with each point alone."""
import numpy as np

from jetlift.fields import Batch, program


def evaluate_batch(fields, points):
    """The (len(fields), m) values of the fields at an (m, dim) point array,
    evaluated in one Batch, and that Batch: its rejected rows, and the
    error evaluating each of them alone raises."""
    b = Batch(np.asarray(points, dtype=float))
    with np.errstate(all="ignore"):
        return program(fields)(b), b
