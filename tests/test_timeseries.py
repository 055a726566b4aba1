import numpy as np

from semisub_motion.timeseries import load_rows, write_csv


def test_write_csv_round_trips_every_float_bit_equal(tmp_path):
    rows = [(np.int64(7), np.float64(1) / 3, 0.1 + 0.2, -0.0, 1.5e300),
            (3, 2.5e-310, np.float64(-1e-17), np.float64(6.02214076e23), 1.0)]
    path = tmp_path / "rows.csv"
    write_csv(path, "a,b,c,d,e", rows)
    text = path.read_text()
    assert "np." not in text
    assert text.splitlines()[0] == "a,b,c,d,e"
    assert text.splitlines()[1].startswith("7,")
    data = load_rows(path)
    expected = np.array(rows, dtype=np.float64)
    assert data.shape == expected.shape
    # bit-equal, so -0.0 stays negative zero
    assert data.tobytes() == expected.tobytes()
