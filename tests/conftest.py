"""Test-session settings shared by every module under tests/.

Property tests run a fixed example sequence with no timing in the verdict,
so a run on a slow or drifting host gives the same verdict as any other
run of the same code: ``derandomize`` seeds each test's examples from the
test itself, ``database=None`` stops replaying examples saved by earlier
runs, and ``deadline=None`` and the suppressed ``too_slow`` health check
keep the host's speed out of pass or fail.
"""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property-test modules then fail to collect on their own
    settings = None

if settings is not None:
    settings.register_profile(
        "cotrack",
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("cotrack")
