import numpy as np
import pytest

from attokit.instances import (_constrained_entry, constrained_entries, member_matrix,
                               perturbed_nonmember, random_unimodular,
                               shared_clark_instance)
from attokit.membership import clark_pairing


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
