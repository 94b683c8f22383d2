import pytest

from diraconf.errors import DomainError
from diraconf.quantum_numbers import (
    check_state,
    decompose_kappa,
    enumerate_kappa,
    radial_nodes,
    sigma_dot_L_plus_one_eigenvalue,
)


@pytest.mark.parametrize("kappa,expected", [
    (-1, (0, 1)),
    (2, (2, 3)),
    (-2, (1, 3)),
    (1, (1, 1)),
    (-3, (2, 5)),
])
def test_decompose_kappa(kappa, expected):
    assert decompose_kappa(kappa) == expected


def test_decompose_kappa_zero_rejected():
    with pytest.raises(DomainError):
        decompose_kappa(0)


def test_round_trip_decompose_compose():
    # l = |kappa + 1/2| - 1/2 and 2j = 2|kappa| - 1, and the pair names
    # kappa alone: j = l + 1/2 for kappa < 0, j = l - 1/2 for kappa > 0
    named = {}
    for kappa in range(-50, 51):
        if kappa == 0:
            continue
        ell, j_twice = decompose_kappa(kappa)
        assert ell == abs(kappa + 0.5) - 0.5
        assert j_twice == 2 * abs(kappa) - 1
        assert j_twice == 2 * ell + (1 if kappa < 0 else -1)
        named[ell, j_twice] = kappa
    assert len(named) == 100


@pytest.mark.parametrize("kappa,upper,expected", [
    (-1, True, 1),   # sigma.L eigenvalue 0 on S states
    (-2, True, 2),
    (1, False, 1),
    (1, True, -1),
])
def test_sigma_dot_L_plus_one(kappa, upper, expected):
    assert sigma_dot_L_plus_one_eigenvalue(kappa, upper) == expected


def test_sigma_dot_L_kappa_zero_rejected():
    with pytest.raises(DomainError):
        sigma_dot_L_plus_one_eigenvalue(0)


def test_sigma_dot_L_antisymmetry():
    for kappa in range(-20, 21):
        if kappa == 0:
            continue
        assert sigma_dot_L_plus_one_eigenvalue(kappa, True) == \
            -sigma_dot_L_plus_one_eigenvalue(-kappa, True)
        assert sigma_dot_L_plus_one_eigenvalue(kappa, False) == \
            -sigma_dot_L_plus_one_eigenvalue(kappa, True)


def test_enumerate_kappa_examples():
    assert enumerate_kappa(1) == [-1]
    assert enumerate_kappa(2) == [-2, -1, 1]
    assert enumerate_kappa(3) == [-3, -2, -1, 1, 2]


def test_enumerate_kappa_count():
    for n in range(1, 51):
        values = enumerate_kappa(n)
        assert len(values) == 2 * n - 1
        assert 0 not in values
        assert n not in values
    with pytest.raises(DomainError):
        enumerate_kappa(0)


def test_check_state_agrees_with_enumerate_kappa():
    for n in range(1, 8):
        for kappa in range(-n - 2, n + 3):
            if kappa in enumerate_kappa(n):
                check_state(n, kappa)
            else:
                with pytest.raises(DomainError):
                    check_state(n, kappa)
    for n in (0, -1):
        with pytest.raises(DomainError):
            check_state(n, -1)


@pytest.mark.parametrize("n,kappa,nodes", [
    (1, -1, 0), (2, -1, 1), (2, -2, 0), (2, 1, 0),
    (3, -1, 2), (3, 1, 1), (3, 2, 0), (4, -3, 1),
])
def test_radial_nodes(n, kappa, nodes):
    assert radial_nodes(n, kappa) == nodes  # n - l - 1


def test_radial_nodes_rejects_missing_states():
    with pytest.raises(DomainError):
        radial_nodes(1, 1)   # kappa = +n
    with pytest.raises(DomainError):
        radial_nodes(2, 0)

