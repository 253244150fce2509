import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "slowok",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
settings.load_profile("slowok")


@pytest.fixture(scope="session")
def minus32():
    from orthosig.fields import fq_context
    from orthosig.forms import build_space

    return build_space("minus", fq_context(3, 1), 2)


@pytest.fixture(scope="session")
def plus32():
    from orthosig.fields import fq_context
    from orthosig.forms import build_space

    return build_space("plus", fq_context(3, 1), 2)
