import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays as np_arrays

from capmac.arrays import build_fc_array, fc_forward
from capmac.device import SensorParams
from capmac.netlab import programmed_weights
from capmac.weights import WeightBank, normalize_weights


class TestNormalizeWeights:
    def test_forced_by_formula(self):
        bank = normalize_weights(WeightBank(np.array([[2.0, -4.0], [1.0, 0.0]])))
        assert bank.beta == 4.0
        np.testing.assert_array_equal(bank.v, [[0.5, -1.0], [0.25, 0.0]])

    def test_already_normalized_unchanged(self):
        v = np.array([[0.5, -1.0], [0.25, 0.0]])
        bank = normalize_weights(WeightBank(v))
        assert bank.beta == 1.0
        np.testing.assert_array_equal(bank.v, v)

    def test_all_zero_left_unchanged(self):
        bank = normalize_weights(WeightBank(np.zeros((2, 3))))
        assert bank.beta == 1.0
        np.testing.assert_array_equal(bank.v, np.zeros((2, 3)))

    @given(np_arrays(float, (3, 4),
                     elements=st.floats(min_value=-50, max_value=50)))
    def test_max_abs_is_one(self, v):
        if np.all(v == 0):
            return
        bank = normalize_weights(WeightBank(v))
        assert np.max(np.abs(bank.v)) == 1.0
        assert bank.beta > 0

    def test_argmax_of_readout_preserved(self):
        rng = np.random.default_rng(3)
        topo = build_fc_array(3, 3, 4)
        params = SensorParams()
        for _ in range(20):
            v = rng.uniform(-1, 1, (4, 9))
            img = rng.uniform(10, 500, (3, 3))
            before = fc_forward(topo, img, v, params)
            after = fc_forward(topo, img, normalize_weights(WeightBank(v)).v, params)
            assert int(np.argmax(before)) == int(np.argmax(after))


class TestBinarizeWeights:
    def test_sign_mapping(self):
        signs, _ = programmed_weights(np.array([[0.3, -0.7]]), binarize=True)
        np.testing.assert_array_equal(signs, [[1.0, -1.0]])

    def test_zero_maps_to_plus_one(self):
        signs, _ = programmed_weights(np.array([[0.0]]), binarize=True)
        assert signs[0, 0] == 1.0

    @given(np_arrays(float, (2, 5),
                     elements=st.floats(min_value=-10, max_value=10)))
    def test_idempotent(self, v):
        once, _ = programmed_weights(v, binarize=True)
        twice, _ = programmed_weights(once, binarize=True)
        np.testing.assert_array_equal(once, twice)
        assert set(np.unique(once)) <= {-1.0, 1.0}


@given(st.one_of(np_arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                           elements=st.floats(-1e3, 1e3)),
                 st.builds(np.zeros, st.tuples(st.integers(1, 4), st.integers(1, 9)))),
       st.floats(0.5, 5.0))
def test_banks_equal_programmed_weights(v, beta):
    # The bank wrapper is the trainer's one programming rule, bit for bit;
    # binarized, the rule programs the signs (sign(0) = +1) with beta 1.
    prog, divisor = programmed_weights(v)
    norm = normalize_weights(WeightBank(v, beta))
    assert norm.v.tobytes() == prog.tobytes() and norm.beta == divisor
    signs, one = programmed_weights(v, binarize=True)
    assert signs.tobytes() == np.where(v >= 0, 1.0, -1.0).tobytes()
    assert one == 1.0
