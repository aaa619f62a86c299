import pickle

import numpy as np
import pytest

from bosecool import errors

# Every package error, with the attributes it carries beyond its message.
ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.BosecoolError)
]
ATTRIBUTES = {
    errors.CutoffTooSmallError: {"deficit": 2.5e-3},
    errors.ConvergenceError: {"best": np.array([0.25, 0.75]), "residual": 3e-9},
}


def test_every_error_listed():
    assert len(ERRORS) == 8 and set(ATTRIBUTES) <= set(ERRORS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    # A child share's error crosses a pipe pickled: type, message and
    # attributes come back as they were.
    attributes = ATTRIBUTES.get(cls, {})
    error = cls("cell refused", **attributes)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == "cell refused" and back.args == ("cell refused",)
    assert back.__dict__.keys() == error.__dict__.keys() == attributes.keys()
    for name, value in attributes.items():
        np.testing.assert_array_equal(getattr(back, name), value)
