import itertools
import math

import numpy as np
import pytest

from slantbeam.arrays import ArrayConfig, awv_matrix, gain_profile
from slantbeam.designs import (
    DigitalGeniePolicy,
    FixedBeamPolicy,
    SteppedGeniePolicy,
    design_rainbow,
    design_stepped,
    genie_stepped,
)
from slantbeam.link import (
    LinkBudget,
    capacity_records,
    min_capacity,
    offset_grid,
    subband_users,
    subcarrier_snr,
)

from oracles import (
    capacity_tolerance,
    genie_gain_atol,
    matched_filter,
    matched_gain_rtol,
    user_capacity,
)

DEG = np.pi / 180.0
TABLE_CFG = ArrayConfig(32, 0.5, 60e9, 2e9, 1200)
CFG48 = ArrayConfig(32, 0.5, 60e9, 2e9, 48)
BUDGET = LinkBudget()


class TestSnrCalibration:
    def test_unit_gain_gives_minus_ten_db(self):
        zeta = subcarrier_snr(np.array([1.0]), BUDGET)
        assert zeta[0] == pytest.approx(0.1, rel=1e-15)

    def test_gain_scales_linearly(self):
        zeta = subcarrier_snr(np.array([1.0, 2.0, 32.0]), BUDGET)
        np.testing.assert_allclose(zeta, [0.1, 0.2, 3.2], rtol=1e-12)

    def test_channel_gain_multiplies(self):
        zeta = subcarrier_snr(np.array([4.0, 3.0]), LinkBudget(-10.0), channel_gain=0.5)
        np.testing.assert_allclose(zeta, [0.1 * 0.5 * 4.0, 0.1 * 0.5 * 3.0], rtol=1e-12)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            subcarrier_snr(np.array([-1.0]), BUDGET)

    def test_snr_whose_linear_value_overflows_rejected(self):
        # 10**(snr_db/10) overflows a double just above 3082.547 dB
        assert LinkBudget(3082.5).snr_linear < math.inf
        with pytest.raises(ValueError, match=r"^snr_db must keep 10\*\*\(snr_db/10\) a finite"):
            LinkBudget(3082.55)


class TestUserCapacity:
    def test_matched_gain_closed_form_per_subcarrier(self):
        # w_sc * log2(1 + 0.1*32) with w_sc = 2 GHz / 1200
        cap = user_capacity(np.array([32.0]), TABLE_CFG, BUDGET)
        assert cap == pytest.approx(3450648.879818997, rel=1e-12)

    def test_full_subband_closed_form(self):
        cap = user_capacity(np.full(400, 32.0), TABLE_CFG, BUDGET)
        assert cap == pytest.approx(1380259551.9275987, rel=1e-12)
        assert cap == pytest.approx(1.38e9, rel=1e-3)

    def test_superset_of_subcarriers_never_loses(self):
        rng = np.random.default_rng(0)
        gains = rng.uniform(0.0, 32.0, size=24)
        small = user_capacity(gains[:12], CFG48, BUDGET)
        big = user_capacity(gains, CFG48, BUDGET)
        assert big >= small

    def test_band_split_granularity_cancels(self):
        # halving the subcarrier width while doubling the count keeps the
        # total: K * (W/K) * log2(1 + z) is K-free for flat gains
        coarse = ArrayConfig(32, 0.5, 60e9, 2e9, 48)
        fine = ArrayConfig(32, 0.5, 60e9, 2e9, 96)
        g = 7.0
        total_coarse = user_capacity(np.full(48, g), coarse, BUDGET)
        total_fine = user_capacity(np.full(96, g), fine, BUDGET)
        assert total_fine == pytest.approx(total_coarse, rel=1e-12)

    def test_zero_gain_zero_capacity(self):
        assert user_capacity(np.zeros(5), CFG48, BUDGET) == 0.0


class TestSubbandUsers:
    def test_middle_band(self):
        users = subband_users([0, 1, 2], 48, 3)
        np.testing.assert_array_equal(np.flatnonzero(users == 1), np.arange(16, 32))

    def test_first_and_last(self):
        users = subband_users(None, 48, 4)
        np.testing.assert_array_equal(np.flatnonzero(users == 0), np.arange(0, 12))
        np.testing.assert_array_equal(np.flatnonzero(users == 3), np.arange(36, 48))

    def test_permutation_places_each_user_on_its_band(self):
        users = subband_users([2, 0, 1], 48, 3)
        np.testing.assert_array_equal(users, np.repeat([1, 2, 0], 16))

    def test_rejects_ragged_split(self):
        with pytest.raises(ValueError, match="not divisible"):
            subband_users(np.arange(5), 48, 5)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            subband_users([0, 0, 2], 48, 3)
        with pytest.raises(ValueError, match="not a permutation"):
            subband_users([0, 1, 3], 48, 3)

    @pytest.mark.parametrize("assignment", [[1.9, 0.2], [1.0, 0.0], [True, False], ["1", "0"]])
    def test_rejects_entries_that_are_not_integers(self, assignment):
        # [1.9, 0.2] would truncate to the valid permutation [1, 0]
        with pytest.raises(ValueError, match=r"^assignment must hold integers, got "):
            subband_users(assignment, 48, 2)
        np.testing.assert_array_equal(subband_users(np.array([1, 0], np.int32), 4, 2),
                                      [1, 1, 0, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="not a permutation"):
            subband_users([0, 1, 2], 48, 2)
        with pytest.raises(ValueError, match="not a permutation"):
            subband_users([1, 0], 48, 3)


class TestOffsetGrid:
    def test_single_point_is_zero(self):
        np.testing.assert_array_equal(offset_grid(10 * DEG, 1), [0.0])

    def test_hundred_point_spacing(self):
        grid = offset_grid(20 * DEG, 100)
        assert grid[0] == -20 * DEG
        assert grid[-1] == 20 * DEG
        np.testing.assert_allclose(np.diff(grid) / DEG, 40.0 / 99, rtol=1e-12)

    def test_odd_count_contains_zero(self):
        grid = offset_grid(5 * DEG, 25)
        assert 0.0 in grid

    def test_validation(self):
        with pytest.raises(ValueError):
            offset_grid(-1.0, 5)
        with pytest.raises(ValueError):
            offset_grid(1.0, 0)


class TestMinCapacity:
    def test_digital_genie_hits_closed_form(self):
        pol = DigitalGeniePolicy(TABLE_CFG)
        aods = np.array([[-20.0, 5.0, 40.0]]) * DEG
        caps = min_capacity(pol, aods, TABLE_CFG, BUDGET)
        np.testing.assert_allclose(caps, 1380259551.9275987, rtol=1e-9)
        assert caps.min() == pytest.approx(1380259551.9275987, rel=1e-9)

    def test_fixed_policy_reuses_rows_across_eval_points(self):
        design = design_stepped(np.array([-10.0, 0.0, 10.0]) * DEG, CFG48)
        pol = FixedBeamPolicy(design, CFG48)
        aods = np.stack([np.array([-10.0, 0.0, 10.0]) * DEG] * 4)
        caps = min_capacity(pol, aods, CFG48, BUDGET)
        assert caps.shape == (4, 3)
        for p in range(1, 4):
            np.testing.assert_array_equal(caps[p], caps[0])

    def test_assignment_resolution_prefers_explicit(self):
        design = design_rainbow(CFG48)
        pol = FixedBeamPolicy(design, CFG48)
        aods = np.array([[-30.0, 0.0, 30.0]]) * DEG
        ident = min_capacity(pol, aods, CFG48, BUDGET)
        swapped = min_capacity(pol, aods, CFG48, BUDGET, assignment=np.array([2, 1, 0]))
        # rainbow maps low frequencies to one edge of the sweep, so moving a
        # user to the other band changes its capacity
        assert ident[0, 0] != pytest.approx(swapped[0, 0], rel=1e-6)

    def test_bad_assignment_rejected(self):
        pol = DigitalGeniePolicy(CFG48)
        aods = np.zeros((1, 3))
        with pytest.raises(ValueError):
            min_capacity(pol, aods, CFG48, BUDGET, assignment=np.array([0, 0, 2]))

    @pytest.mark.parametrize("kind", ["rainbow", "digital_genie"])
    def test_matches_per_band_loop(self, kind):
        # oracle: per user, its band's gains, then user_capacity, as capacities
        # were once accumulated. The rainbow's gains come from one gain_profile
        # call on its weight columns, steered along the antennas, so they agree
        # with the evaluation's subcarrier ramps to the kernels' rounding bound.
        # The digital genie's are the closed form N, exactly; its matched-filter
        # columns reach N only to rounding, so they are checked against N at the
        # summation bound instead
        assignment = np.array([2, 0, 1])
        if kind == "rainbow":
            design = design_rainbow(CFG48)
            pol = FixedBeamPolicy(design, CFG48)
        else:
            pol = DigitalGeniePolicy(CFG48)
        h2 = (1.0, 0.5, 2.0)
        aods = np.array([[-30.0, 0.0, 30.0], [-27.0, 4.0, 33.0], [-35.0, -2.0, 20.0]]) * DEG
        caps = min_capacity(pol, aods, CFG48, BUDGET, assignment=assignment, channel_gains=h2)
        expected = np.empty(aods.shape)
        for p, row in enumerate(aods):
            if kind == "rainbow":
                cols = awv_matrix(design.weights, CFG48)
            else:
                cols = matched_filter(row, assignment, CFG48)
            for u, band in enumerate(assignment):
                sl = slice(band * 16, (band + 1) * 16)
                gains = gain_profile(row[u], cols, CFG48)[sl]
                if kind == "digital_genie":
                    np.testing.assert_allclose(gains, 32.0, rtol=matched_gain_rtol(32), atol=0)
                    gains = np.full(16, 32.0)
                expected[p, u] = user_capacity(gains, CFG48, BUDGET, h2[u])
        if kind == "rainbow":
            np.testing.assert_allclose(caps, expected,
                                       **capacity_tolerance(CFG48, BUDGET, max(h2), 3))
        else:
            np.testing.assert_array_equal(caps, expected)

    def test_channel_gains_broadcast_or_rejected(self):
        pol = FixedBeamPolicy(design_rainbow(CFG48), CFG48)
        aods = np.array([[-30.0, 0.0, 30.0]]) * DEG
        shared = min_capacity(pol, aods, CFG48, BUDGET, channel_gains=0.5)
        each = min_capacity(pol, aods, CFG48, BUDGET, channel_gains=(0.5, 0.5, 0.5))
        np.testing.assert_array_equal(shared, each)
        for bad, message in (
            ((1.0, 2.0), r"need one value or one per user \(3\), got 2$"),
            ((1.0, 0.0, 1.0), r"must be positive and finite, got 0\.0$"),
            (-1.0, r"must be positive and finite, got -1\.0$"),
            ([[1.0, 1.0, 1.0]],
             r"must be a non-empty 1-D real array, got float64 of shape \(1, 3\)$"),
        ):
            with pytest.raises(ValueError, match="^channel_gains " + message):
                min_capacity(pol, aods, CFG48, BUDGET, channel_gains=bad)

    def test_true_aods_of_more_than_two_dimensions_rejected(self):
        pol = FixedBeamPolicy(design_rainbow(CFG48), CFG48)
        message = r"^true_aods must have shape \(P, U\), got \(1, 1, 3\)$"
        with pytest.raises(ValueError, match=message):
            min_capacity(pol, np.zeros((1, 1, 3)), CFG48, BUDGET)

    def test_failure_names_beam_and_eval_index(self):
        pol = FixedBeamPolicy(design_rainbow(CFG48), CFG48)
        aods = np.array([[0.0, 0.1, 0.2], [0.0, 1.7, 0.2]])
        with pytest.raises(ValueError, match=r"beam rainbow, eval index 1: angle of departure"):
            min_capacity(pol, aods, CFG48, BUDGET)

    def test_records_score_each_policy_as_min_capacity_does(self):
        assignment = np.array([1, 2, 0])
        policies = {
            "stepped": FixedBeamPolicy(design_stepped(np.array([-0.3, 0.0, 0.4]), CFG48), CFG48),
            "rainbow": FixedBeamPolicy(design_rainbow(CFG48), CFG48),
            "digital_genie": DigitalGeniePolicy(CFG48),
        }
        aods = np.array([[-0.3, 0.0, 0.4], [-0.25, 0.1, 0.35]])
        recs = capacity_records(policies, aods, CFG48, BUDGET, assignment, (2.0, 1.0, 0.5))
        assert list(recs) == list(policies)
        for kind, pol in policies.items():
            alone = min_capacity(pol, aods, CFG48, BUDGET, assignment, (2.0, 1.0, 0.5))
            np.testing.assert_array_equal(recs[kind], alone)

    def test_stepped_genie_serves_the_sub_bands_under_every_assignment(self):
        # the genie solves toward the directions b steers at, so under each of the
        # six assignments its capacities are those of a direct solve at the
        # band-ordered directions, frozen and scored under that assignment, to the
        # bound between the solve's own alignment and its weight columns
        aods = np.array([[-30.0, 0.0, 30.0], [-12.0, 25.0, 4.0]]) * DEG
        tol = capacity_tolerance(CFG48, BUDGET, 1.0, 3,
                                 genie_gain_atol(CFG48, CFG48.default_tau_max()))
        genie = {"stepped_genie": SteppedGeniePolicy(CFG48)}
        for assignment in itertools.permutations(range(3)):
            caps = capacity_records(genie, aods, CFG48, BUDGET, assignment)["stepped_genie"]
            for p, row in enumerate(aods):
                frozen = FixedBeamPolicy(genie_stepped(row[np.argsort(assignment)], CFG48), CFG48)
                expected = min_capacity(frozen, row[None], CFG48, BUDGET, assignment)
                np.testing.assert_allclose(caps[p], expected[0], **tol, err_msg=str(assignment))

    def test_digital_genie_capacities_ignore_the_assignment(self):
        # the genie's gain is N on every subcarrier, so each user's capacity
        # is the same sum wherever its sub-band lies
        pol = {"digital_genie": DigitalGeniePolicy(CFG48)}
        aods = np.array([[-0.3, 0.0, 0.4], [-0.25, 0.1, 0.35]])
        tables = [capacity_records(pol, aods, CFG48, BUDGET, assignment, (1.0, 0.5, 2.0))
                  ["digital_genie"] for assignment in itertools.permutations(range(3))]
        assert len(tables) == 6
        for table in tables[1:]:
            np.testing.assert_array_equal(table, tables[0])

    def test_bad_direction_names_first_beam(self):
        policies = {kind: DigitalGeniePolicy(CFG48) for kind in ("first", "second")}
        aods = np.array([[0.0, 0.1, 0.2], [0.0, 0.1, -1.7]])
        with pytest.raises(ValueError, match=r"^beam first, eval index 1: angle of departure"):
            capacity_records(policies, aods, CFG48, BUDGET)

    def test_genie_tracks_and_fixed_decays(self):
        # as the true direction drifts away, a frozen stepped beam loses
        # capacity while the digital genie holds it
        start = np.array([0.0])
        drifted = np.array([8.0 * DEG])
        design = design_stepped(start, CFG48)
        frozen = min_capacity(FixedBeamPolicy(design, CFG48), np.array([start, drifted]), CFG48, BUDGET)
        genie = min_capacity(DigitalGeniePolicy(CFG48), np.array([start, drifted]), CFG48, BUDGET)
        assert frozen[1, 0] < 0.5 * frozen[0, 0]
        assert genie[1, 0] == pytest.approx(genie[0, 0], rel=1e-9)

    def test_tables_are_read_only(self):
        policies = {"rainbow": FixedBeamPolicy(design_rainbow(CFG48), CFG48),
                    "digital_genie": DigitalGeniePolicy(CFG48)}
        aods = np.array([[-0.3, 0.0, 0.4]])
        tables = [*capacity_records(policies, aods, CFG48, BUDGET).values(),
                  min_capacity(policies["rainbow"], aods, CFG48, BUDGET)]
        for table in tables:
            assert table.shape == (1, 3) and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 5.0
