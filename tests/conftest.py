"""Test-session set-up shared by every test module.

When a property test fails, hypothesis's pytest plugin imports
hypothesis.extra._patching to explain it, and that module's import of
libcst raises a DeprecationWarning. pytest.ini turns DeprecationWarning
into an error, which at report time ends the session with INTERNALERROR
instead of reporting the failure. Importing the module once here, with that
warning ignored, lets failures report and leaves every filter in pytest.ini
as it is.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional for hypothesis
        pass
