"""The error types and the exit codes the CLI maps them to."""

import inspect

import pytest

import oulab.cli
import oulab.errors
from oulab.errors import OULabError, RateTooLargeError

ERRORS = [cls for _, cls in inspect.getmembers(oulab.errors, inspect.isclass)
          if cls.__module__ == oulab.errors.__name__]


def test_every_error_derives_from_the_package_base():
    assert OULabError in ERRORS and len(ERRORS) > 10
    for cls in ERRORS:
        assert issubclass(cls, OULabError), cls.__name__
        assert cls is OULabError or cls.__bases__ == (OULabError,)


@pytest.fixture
def model_check(monkeypatch):
    """Replaces the `model check` handler.  The parser is built once per
    process with the handlers it finds, so it is rebuilt around the
    replacement, and again after the test."""
    def replace(handler):
        monkeypatch.setattr(oulab.cli, "_cmd_model_check", handler)
        oulab.cli.build_parser.cache_clear()

    yield replace
    oulab.cli.build_parser.cache_clear()


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_main_maps_every_error_to_its_exit_code(cls, model_check, capsys):
    def fail(args):
        raise cls("raised on purpose")

    model_check(fail)
    code = oulab.cli.main(["model", "check", "standard1"])
    err = capsys.readouterr().err
    assert "raised on purpose" in err
    if cls is RateTooLargeError:
        assert code == 2 and "bound failed" in err
    else:
        assert code == 1 and "error:" in err


def test_other_exceptions_are_not_swallowed(model_check):
    def fail(args):
        raise ValueError("not an oulab error")

    model_check(fail)
    with pytest.raises(ValueError):
        oulab.cli.main(["model", "check", "standard1"])
