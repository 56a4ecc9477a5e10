import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "walkembed",
    deadline=None,  # exact-arithmetic examples vary wildly in cost
    suppress_health_check=[HealthCheck.too_slow],
)
# CI runs the same examples on every run, so a failure there reproduces
settings.register_profile(
    "ci", parent=settings.get_profile("walkembed"), derandomize=True)
settings.load_profile("ci" if os.environ.get("CI") else "walkembed")
