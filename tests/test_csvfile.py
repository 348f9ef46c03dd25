import math

import numpy as np

from mixreg.csvfile import write_csv


def test_cell_rule(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, "a,b,c,d,e,f,g,h", [
        (True, np.bool_(False), np.int64(-7), 3, 0.1, np.float64(1 / 3), math.inf, -0.0)])
    assert path.read_bytes() == (
        b"a,b,c,d,e,f,g,h\n"
        b"1,0,-7,3,0.10000000000000001,0.33333333333333331,inf,-0\n")
