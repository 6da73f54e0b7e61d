"""The tests' closeness assertion: ``|a - d| <= atol + rtol * |d|``."""


def assert_close(actual, desired, rtol=1e-7, atol=0.0):
    """Assert ``|a - d| <= atol + rtol * |d|`` for a scalar or, elementwise,
    for two lists of the same length."""
    pairs = zip(actual, desired, strict=True) if isinstance(desired, list) else [(actual, desired)]
    for a, d in pairs:
        if not abs(a - d) <= atol + rtol * abs(d):
            raise AssertionError(f"{a!r} is not within rtol={rtol}, atol={atol} of {d!r}")
