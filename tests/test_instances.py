import numpy as np
import pytest

from attokit.instances import (_constrained_entry, constrained_entries, member_matrix,
                               perturbed_nonmember, random_blaschke, random_points_in_disk,
                               random_unimodular, separated_boundary_points,
                               shared_clark_instance)
from attokit.membership import clark_pairing, recover_chi_psi_clark, run_all
from attokit.operators import clark_unitary


def listed_nonmember(rng, member, pairing, delta=1e-3):
    """perturbed_nonmember's entries as drawn from the list of constrained
    entries."""
    n, m = member.entries.shape
    choices = constrained_entries(m, n, pairing.shared)
    s_pos, p_pos = choices[rng.integers(len(choices))]
    s, p = int(pairing.perm_b[s_pos]), int(pairing.perm_a[p_pos])
    bumped = member.entries.copy()
    bumped[s, p] += delta * (1.0 + member.max_abs) * random_unimodular(rng)
    return bumped


def listed_points_in_disk(rng, count, radius=0.8, min_sep=0.05):
    """random_points_in_disk with numpy scalar draws and a list of the
    points placed so far."""
    pts = []
    for _ in range(10000):
        z = radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        if all(abs(z - p) >= min_sep for p in pts):
            pts.append(complex(z))
        if len(pts) == count:
            return np.array(pts)
    raise RuntimeError("could not place separated points; lower min_sep")


class TestPointSampler:
    def test_same_points_and_stream_as_the_list(self):
        for seed in range(40):
            for count, radius, min_sep in ((64, 0.95, 0.05), (40, 0.8, 0.05), (24, 0.95, 0.05),
                                           (12, 0.8, 0.2), (3, 0.5, 0.05), (1, 0.8, 0.05)):
                drawn, listed = np.random.default_rng(seed), np.random.default_rng(seed)
                pts = random_points_in_disk(drawn, count, radius, min_sep)
                ref = listed_points_in_disk(listed, count, radius, min_sep)
                assert pts.dtype == ref.dtype and pts.tobytes() == ref.tobytes(), (seed, count)
                assert drawn.bit_generator.state == listed.bit_generator.state

    def test_same_products_as_the_list(self):
        for seed in (0, 11, 921):
            for degree in (64, 40, 6, 1):
                drawn, listed = np.random.default_rng(seed), np.random.default_rng(seed)
                b = random_blaschke(drawn, degree, radius=0.95)
                assert b.zeros == tuple(listed_points_in_disk(listed, degree, 0.95))
                assert b.front == random_unimodular(listed)
                assert drawn.bit_generator.state == listed.bit_generator.state

    def test_crowded_disk_raises(self):
        with pytest.raises(RuntimeError, match="could not place separated points"):
            random_points_in_disk(np.random.default_rng(0), 10, radius=0.1, min_sep=0.5)


class TestConstrainedDraw:
    def test_index_maps_to_the_listed_entry(self):
        for m in range(1, 8):
            for n in range(1, 8):
                for shared in range(min(m, n) + 1):
                    listed = constrained_entries(m, n, shared)
                    assert len(listed) == (n - 1) * (m - 1)
                    for idx, entry in enumerate(listed):
                        assert _constrained_entry(m, shared, idx) == entry, (m, n, shared, idx)

    def test_same_bump_and_stream_as_the_list(self, rng):
        for m, n, shared in ((3, 2, 0), (2, 3, 1), (4, 4, 2), (3, 3, 3), (5, 4, 0), (4, 6, 3)):
            alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, shared)
            pairing = clark_pairing(alpha, beta, lam1, lam2)
            assert pairing.shared == shared
            member = member_matrix(rng, alpha, beta, lam1, lam2)
            for seed in (0, 7, 301):
                drawn, listed = np.random.default_rng(seed), np.random.default_rng(seed)
                bumped = perturbed_nonmember(drawn, member, pairing)
                assert bumped.entries.tobytes() == listed_nonmember(listed, member,
                                                                   pairing).tobytes()
                assert drawn.bit_generator.state == listed.bit_generator.state

    def test_line_has_no_constrained_entry(self, rng):
        for m, n in ((1, 3), (3, 1), (1, 1)):
            alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, 0)
            member = member_matrix(rng, alpha, beta, lam1, lam2)
            with pytest.raises(ValueError, match="no constrained entries"):
                perturbed_nonmember(rng, member, clark_pairing(alpha, beta, lam1, lam2))


def rejection_boundary_points(rng, count, min_angle):
    """The rejection sampler that ``separated_boundary_points`` keeps below
    13 points."""
    for _ in range(10000):
        angles = np.sort(rng.random(count) * 2.0 * np.pi)
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        if np.min(gaps) >= min_angle:
            return np.exp(1j * angles)
    raise RuntimeError("could not separate boundary points")


class TestSharedClarkInstance:
    def test_up_to_twelve_points_are_rejection_sampled(self):
        for seed in range(10):
            for count in (1, 5, 9, 12):
                min_angle = min(0.25, 5.0 / count)
                drawn, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                pts = separated_boundary_points(drawn, count, min_angle)
                assert pts.tobytes() == rejection_boundary_points(ref, count, min_angle).tobytes()
                assert drawn.bit_generator.state == ref.bit_generator.state

    def test_direct_draw_is_sorted_and_separated(self, rng):
        for count in (13, 24, 84, 128):
            min_angle = min(0.25, 5.0 / count)
            for _ in range(20):
                pts = separated_boundary_points(rng, count, min_angle)
                angles = np.angle(pts) % (2.0 * np.pi)
                gaps = np.diff(np.r_[angles, angles[0] + 2.0 * np.pi])
                assert len(pts) == count and np.all(np.diff(angles) > 0)
                assert np.max(np.abs(np.abs(pts) - 1.0)) <= 1e-15
                assert np.min(gaps) >= min_angle - 1e-12
        with pytest.raises(ValueError, match="exceeds the circle"):
            separated_boundary_points(rng, 13, 0.5)

    @pytest.mark.parametrize("shared", [-1, 3])
    def test_shared_outside_the_smaller_degree_is_refused(self, rng, shared):
        with pytest.raises(ValueError, match=f"^shared = {shared} lies outside "
                                             r"0\.\.min\(m, n\) = 0\.\.2$"):
            shared_clark_instance(rng, 3, 2, shared)

    @pytest.mark.parametrize("m, n, shared", [(24, 24, 24), (64, 40, 20)])
    def test_member_witness_and_nonmember(self, rng, m, n, shared):
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, shared)
        pairing = clark_pairing(alpha, beta, lam1, lam2)
        assert pairing.shared == shared
        member = member_matrix(rng, alpha, beta, lam1, lam2)
        assert run_all(member, pairing)["member"]
        chi, psi = recover_chi_psi_clark(member, pairing)
        u_a = clark_unitary(alpha, lam1).entries
        u_b = clark_unitary(beta, lam2).entries
        tm = member.tm_entries()
        d = tm - u_b @ tm @ u_a.conj().T
        rebuilt = (np.outer(psi.tm(), np.conj(alpha.model_space.k0))
                   + np.outer(beta.model_space.k0, np.conj(chi.tm())))
        assert np.max(np.abs(d - rebuilt)) <= 1e-10 * (1.0 + np.max(np.abs(d)))
        assert not run_all(perturbed_nonmember(rng, member, pairing), pairing)["member"]
