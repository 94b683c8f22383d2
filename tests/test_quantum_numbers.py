import pytest

from diraconf.errors import DomainError
from diraconf.quantum_numbers import (
    AngularState,
    check_state,
    decompose_kappa,
    enumerate_kappa,
    kappa_from_lj,
    radial_nodes,
    sigma_dot_L_plus_one_eigenvalue,
)


@pytest.mark.parametrize("ell,j_twice,expected", [
    (0, 1, -1),   # S_1/2
    (1, 1, 1),    # P_1/2
    (2, 5, -3),   # D_5/2
    (1, 3, -2),   # P_3/2
    (2, 3, 2),    # D_3/2
])
def test_kappa_from_lj(ell, j_twice, expected):
    assert kappa_from_lj(ell, j_twice) == expected


def test_kappa_from_lj_rejects_inconsistent_pairs():
    with pytest.raises(DomainError):
        kappa_from_lj(0, 3)
    with pytest.raises(DomainError):
        kappa_from_lj(2, 7)
    with pytest.raises(DomainError):
        kappa_from_lj(-1, 1)


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
    for kappa in range(-50, 51):
        if kappa == 0:
            continue
        ell, j_twice = decompose_kappa(kappa)
        assert kappa_from_lj(ell, j_twice) == kappa


@pytest.mark.parametrize("kappa,upper,expected", [
    (-1, True, 1),   # sigma.L eigenvalue 0 on S states
    (-2, True, 2),
    (1, False, 1),
    (1, True, -1),
])
def test_sigma_dot_L_plus_one(kappa, upper, expected):
    assert sigma_dot_L_plus_one_eigenvalue(kappa, upper) == expected


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


def test_angular_state_properties():
    s = AngularState(kappa=-1, magnetic_twice=1)
    assert s.ell == 0 and s.j_twice == 1
    s = AngularState(kappa=2, magnetic_twice=-3)
    assert s.ell == 2 and s.j_twice == 3


def test_angular_state_validation():
    with pytest.raises(DomainError):
        AngularState(kappa=0)
    with pytest.raises(DomainError):
        AngularState(kappa=-1, magnetic_twice=3)  # |2M| > 2j
    with pytest.raises(DomainError):
        AngularState(kappa=-2, magnetic_twice=2)  # M must be half-integer
