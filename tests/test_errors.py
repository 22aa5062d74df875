import inspect
import pickle

import pytest

import gridbench.errors as errors

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, errors.GridBenchError)]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    # a training worker's error reaches the calling process pickled
    if cls is errors.SchemaViolation:
        exc = cls(["/master_seed: missing", "/metrics: not an array"])
    else:
        exc = cls("something went wrong")
    exc.__notes__ = ["while evaluating datasets[0] (tiny_a)"]
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert back.__dict__ == exc.__dict__  # attributes and notes
