import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1weyl import (
    DomainError,
    ReflectableBase,
    Root,
    Semilattice,
    baby_semilattice,
    check_reflectable_set,
    is_elliptic_like,
    pairwise_semilattice,
    reflect,
    root_in_r0,
    root_in_rx,
    support,
    support_pairs,
    toroidal_semilattice,
    validate_semilattice,
)
from a1weyl.lattice import baby_base, unit_vec, vec_add, vec_scale

from conftest import root


class TestValidateSemilattice:
    def test_baby_ok(self, baby2):
        assert validate_semilattice(baby2) == []

    def test_toroidal_ok(self, toroidal2):
        assert validate_semilattice(toroidal2) == []

    def test_duplicate_coset(self):
        s = Semilattice(2, ((0, 0), (1, 0), (1, 0)))
        assert any("duplicate" in e for e in validate_semilattice(s))

    def test_nonzero_first_rep(self):
        s = Semilattice(2, ((1, 0), (0, 1), (1, 1)))
        assert any("zero vector" in e for e in validate_semilattice(s))

    def test_missing_basis_reps(self):
        s = Semilattice(2, ((0, 0), (1, 0)))
        assert validate_semilattice(s)

    def test_basis_out_of_order(self):
        s = Semilattice(2, ((0, 0), (0, 1), (1, 0)))
        assert any("e1" in e for e in validate_semilattice(s))

    def test_non_binary_entries(self):
        s = Semilattice(2, ((0, 0), (1, 0), (0, 2)))
        assert any("{0,1}" in e for e in validate_semilattice(s))

    def test_extra_rep_needs_two_ones(self):
        s = Semilattice(1, ((0,), (1,), (0,)))
        # third rep duplicates tau_0 and has too small a support
        assert validate_semilattice(s)

    @pytest.mark.parametrize("cosets, bad", [
        (((0, 0), (1.9, 0), (0, True)), ["coset 1 entry 1.9", "coset 2 entry True"]),
        ((("1", 0), (1, 0), (0, 1)), ["coset 0 entry '1'"]),
        (((0, 0), (1.0, 0), (0, 1)), ["coset 1 entry 1.0"]),
    ])
    def test_entries_are_stored_as_given_and_must_be_ints(self, cosets, bad):
        # int() made the first two a valid baby lattice
        s = Semilattice(2, cosets)
        assert s.cosets == cosets
        assert validate_semilattice(s) == [f"{b} is not an integer" for b in bad]

    @pytest.mark.parametrize("rank", [2.0, "2", True])
    def test_a_rank_that_is_not_an_int_is_reported(self, rank):
        # zero_vec(2.0) raised TypeError
        s = Semilattice(rank, ((0, 0), (1, 0), (0, 1)))
        assert validate_semilattice(s) == [f"rank {rank!r} is not an integer"]


class TestRootMembership:
    def test_coset_reduction_true(self, baby2):
        assert root_in_rx(baby2, root(1, 3, 0))

    def test_coset_absent(self, baby2):
        assert not root_in_rx(baby2, root(1, 1, 1))

    def test_isotropic_not_in_rx(self, baby2):
        assert not root_in_rx(baby2, root(0, 0, 0))

    def test_rank_mismatch(self, baby2):
        with pytest.raises(DomainError):
            root_in_rx(baby2, root(1, 1))

    def test_toroidal_contains_all_cosets(self, toroidal2):
        assert root_in_rx(toroidal2, root(-1, 1, 1))

    def test_isotropic_membership(self, baby2):
        assert root_in_r0(baby2, root(0, 1, 1))  # s1 + s2 lies in S + S
        assert not root_in_r0(baby2, root(1, 1, 0))


class TestReflect:
    def test_reflection_negates_its_root(self):
        e = root(1, 0, 0)
        assert reflect(e, e) == root(-1, 0, 0)

    def test_oracle_value(self):
        # direct substitution: e - 2*(e + s1) = -e - 2*s1
        assert reflect(root(1, 1, 0), root(1, 0, 0)) == root(-1, -2, 0)

    def test_isotropic_reflection_is_identity(self):
        iso = root(0, 1, 0)
        assert reflect(iso, root(1, 0, 0)) == root(1, 0, 0)
        assert reflect(root(1, 0, 0), iso) == iso

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            reflect(root(1, 0), root(1, 0, 0))


signs = st.sampled_from((-1, 1))
coords2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


def toroidal_root2():
    return st.builds(Root, signs, coords2)


@settings(deadline=None)
@given(toroidal_root2(), toroidal_root2())
def test_reflect_is_an_involution(a, b):
    assert reflect(a, reflect(a, b)) == b


@settings(deadline=None)
@given(toroidal_root2(), toroidal_root2())
def test_reflect_preserves_membership(a, b):
    s = toroidal_semilattice(2)
    assert root_in_rx(s, reflect(a, b))


@settings(deadline=None)
@given(st.sampled_from(((0, 0), (1, 0), (0, 1), (1, 1))), coords2)
def test_support_depends_on_residue_only(tau, shift):
    s = toroidal_semilattice(2)
    a = Root(1, tau)
    b = Root(1, vec_add(tau, vec_scale(2, shift)))
    assert support(s, a) == support(s, b)


class TestSupport:
    def test_zero_part(self, baby2):
        assert support(baby2, root(1, 0, 0)) == ()

    def test_single(self, baby2):
        assert support(baby2, root(1, 1, 0)) == (1,)

    def test_pair(self, toroidal2):
        assert support(toroidal2, root(1, 1, 1)) == (1, 2)

    def test_rejects_non_member(self, baby2):
        with pytest.raises(DomainError):
            support(baby2, root(0, 0, 0))


class TestEllipticLike:
    def test_baby3(self, baby3_base):
        assert is_elliptic_like(baby3_base)

    def test_toroidal2(self, toroidal2_base):
        assert is_elliptic_like(toroidal2_base)

    def test_toroidal3_has_a_triple_support(self):
        assert not is_elliptic_like(ReflectableBase(toroidal_semilattice(3)))

    def test_pairwise3(self, pairwise3_base):
        assert is_elliptic_like(pairwise3_base)


class TestSupportPairs:
    def test_baby_has_none(self, baby2_base):
        assert support_pairs(baby2_base) == {}

    def test_toroidal2(self, toroidal2_base):
        assert support_pairs(toroidal2_base) == {(1, 2): 3}

    def test_toroidal3_pairs(self):
        base = ReflectableBase(toroidal_semilattice(3))
        assert set(support_pairs(base)) == {(1, 2), (1, 3), (2, 3)}

    @pytest.mark.parametrize("nu", [2, 3, 4])
    def test_pairwise_count(self, nu):
        base = ReflectableBase(pairwise_semilattice(nu))
        assert len(support_pairs(base)) == nu * (nu - 1) // 2


class TestCheckReflectableSet:
    def test_baby_base_covers(self, baby2, baby2_base):
        report = check_reflectable_set(baby2, list(baby2_base.roots), 4)
        assert report.covered
        assert report.uncovered == ()

    def test_single_reflection_orbit_is_tiny(self, toroidal2):
        report = check_reflectable_set(toroidal2, [root(1, 0, 0)], 2)
        assert not report.covered
        assert Root(1, (1, 0)) in report.uncovered

    def test_box_covers_itself(self, toroidal2):
        from a1weyl.lattice import _roots_in_box

        everything = _roots_in_box(toroidal2, 1)
        report = check_reflectable_set(toroidal2, everything, 1)
        assert report.covered

    def test_empty_candidate_rejected(self, baby2):
        with pytest.raises(DomainError):
            check_reflectable_set(baby2, [], 4)

    def test_radius_must_be_positive(self, baby2, baby2_base):
        with pytest.raises(DomainError):
            check_reflectable_set(baby2, list(baby2_base.roots), 0)

    def test_uncovered_is_sorted(self, toroidal2):
        report = check_reflectable_set(toroidal2, [root(1, 0, 0)], 2)
        keys = [(r.sign, r.lat) for r in report.uncovered]
        assert keys == sorted(keys)

    def test_standard_bases_cover_other_families(self, toroidal2):
        # evidence that the distinguished base generates, beyond the minimal case
        report = check_reflectable_set(toroidal2, list(ReflectableBase(toroidal2).roots), 3)
        assert report.covered
        pair3 = pairwise_semilattice(3)
        report = check_reflectable_set(pair3, list(ReflectableBase(pair3).roots), 3)
        assert report.covered


def test_overflow_guard():
    big = 2**62
    with pytest.raises(OverflowError):
        vec_add((big,), (big,))


def test_unit_vec():
    assert unit_vec(3, 2) == (0, 1, 0)


def test_baby_base_is_built_once_per_rank():
    assert baby_base(3) is baby_base(3)
    assert baby_base(3) == ReflectableBase(baby_semilattice(3))
    assert baby_base(True) is not baby_base(1)  # True hashes as 1 but is not the rank 1
    assert baby_base(True).rank is True


def test_constructors_are_valid():
    for nu in range(5):
        assert validate_semilattice(baby_semilattice(nu)) == []
        assert validate_semilattice(toroidal_semilattice(nu)) == []
        assert validate_semilattice(pairwise_semilattice(nu)) == []


@pytest.mark.parametrize("nu", [-1, -2, 1.5, "2", None])
@pytest.mark.parametrize("family", [baby_semilattice, toroidal_semilattice, pairwise_semilattice, baby_base])
def test_a_family_takes_only_a_non_negative_int_rank(family, nu):
    with pytest.raises(DomainError, match=r"rank must be a non-negative int, got"):
        family(nu)
