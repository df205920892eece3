"""Shared fixtures: session-scoped meshes, so each surface's cached patch
geometry is built once per run.  Under the orbit rule that build takes
milliseconds for a sphere or torus and about 0.07 s for a general
ellipsoid at order 24."""

import pathlib

import pytest

from shellbound import (
    PhysicalConstants,
    Sphere,
    Torus,
    build_surface,
    flat_space,
    hyperbolic_space,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def constants():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def flat():
    return flat_space()


@pytest.fixture(scope="session")
def hyp():
    return hyperbolic_space(0.5)


@pytest.fixture(scope="session")
def sphere32():
    return build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=32)


@pytest.fixture(scope="session")
def sphere24():
    return build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=24)


@pytest.fixture(scope="session")
def sphere16():
    return build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)


@pytest.fixture(scope="session")
def sphere32_r2():
    return build_surface(Sphere((0.0, 0.0, 0.0), 2.0), order=32)


@pytest.fixture(scope="session")
def torus24():
    return build_surface(Torus((0.0, 0.0, 0.0), 2.0, 0.5), order=24)


@pytest.fixture(scope="session")
def torus16():
    return build_surface(Torus((0.0, 0.0, 0.0), 2.0, 0.5), order=16)


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR
