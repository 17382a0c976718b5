"""Golden digests of ``profile`` JSON and ``charsum`` CSV over every group
kind. The digests were recorded before the four group kinds shared one Z_m^N
core (numpy 2.4.6, x86-64), so they pin its output byte for byte, floats
included. Each kind has a case on each route: the pairs and the FFT route of
``cyclic_convolve`` for ``profile``, and the FFT and the per-frequency route
of ``charsum_table`` for ``charsum``. The three per-frequency digests were
recorded again when sources became sorted arrays: that route sums over the
elements in their order, which was a frozenset's hash order and is now
increasing, and 21 of 37 magnitudes moved in their last bits (by at most
2.5e-15 relative).
"""

import hashlib

import pytest

from addext.canonical import canonical_json
from addext.cli import main


def _random(group: dict, size: int, seed: int) -> dict:
    return {"group": group, "spec": {"variant": "random", "size": size, "seed": seed}}


ZN = {"kind": "zn", "moduli": [5, 7, 11, 13]}

# name: (source, command and options)
CASES = {
    # |X|^2 <= order: pairs; |X|^2 > order: FFT
    "profile-zp-pairs": (_random({"kind": "zp", "p": 10007}, 40, 1), ["profile", "--alpha", "0.25"]),
    "profile-zp-fft": ({"group": {"kind": "zp", "p": 1009},
                        "spec": {"variant": "gap", "b0": 3, "steps": [1, 40], "r": 2, "s": 8}},
                       ["profile", "--alpha", "0.25"]),
    "profile-zn-pairs": (_random(ZN, 30, 2), ["profile", "--alpha", "0.5"]),
    "profile-zn-fft": (_random(ZN, 200, 3), ["profile", "--alpha", "0.25"]),
    "profile-zp_vec-pairs": (_random({"kind": "zp_vec", "p": 101, "n": 2}, 40, 4),
                             ["profile", "--alpha", "0.25"]),
    "profile-zp_vec-fft": (_random({"kind": "zp_vec", "p": 31, "n": 2}, 300, 5),
                           ["profile", "--alpha", "0.25"]),
    "profile-zp_vec-n3-fft": ({"group": {"kind": "zp_vec", "p": 5, "n": 3},
                               "spec": {"variant": "gap", "b0": [1, 2, 3],
                                        "steps": [[1, 0, 2], [0, 1, 1]], "r": 2, "s": 4}},
                              ["profile", "--alpha", "0.4"]),
    "profile-fq_vec-p2-pairs": (_random({"kind": "fq_vec", "p": 2, "k": 4, "n": 3}, 40, 6),
                                ["profile", "--alpha", "0.25"]),
    "profile-fq_vec-p2-fft": (_random({"kind": "fq_vec", "p": 2, "k": 2, "n": 3}, 30, 7),
                              ["profile", "--alpha", "0.25"]),
    "profile-fq_vec-p3-pairs": (_random({"kind": "fq_vec", "p": 3, "k": 3, "n": 2}, 20, 8),
                                ["profile", "--alpha", "0.25"]),
    "profile-fq_vec-p3-fft": (_random({"kind": "fq_vec", "p": 3, "k": 2, "n": 2}, 30, 15),
                              ["profile", "--alpha", "0.25"]),
    # order <= |frequencies| |X|: FFT; otherwise one frequency at a time
    "charsum-zp-fft": ({"group": {"kind": "zp", "p": 1009},
                        "spec": {"variant": "gap", "b0": 3, "steps": [1, 40], "r": 2, "s": 8}},
                       ["charsum", "--characters", "all"]),
    "charsum-zp-direct": (_random({"kind": "zp", "p": 1000003}, 50, 9),
                          ["charsum", "--characters", "0:20"]),
    "charsum-zn-fft": (_random(ZN, 200, 10), ["charsum", "--characters", "all"]),
    "charsum-zn-direct": (_random(ZN, 30, 11), ["charsum", "--characters", "0:10"]),
    "charsum-zp_vec-fft": (_random({"kind": "zp_vec", "p": 13, "n": 2}, 60, 12),
                           ["charsum", "--characters", "all"]),
    "charsum-zp_vec-n3-fft": (_random({"kind": "zp_vec", "p": 5, "n": 3}, 40, 13),
                              ["charsum", "--characters", "all"]),
    "charsum-zp_vec-direct": (_random({"kind": "zp_vec", "p": 101, "n": 2}, 50, 14),
                              ["charsum", "--characters", "0:7"]),
}

GOLDEN = {
    "charsum-zn-direct":
        "cf1c47c9a11503833583e1963d65a40c9906990efa1c79b8c5a3e9e8b7aa9d73",
    "charsum-zn-fft":
        "65b7d5e74cc463e9e66a5390b78ea47faed48bec7f854c928d54f021d6d79044",
    "charsum-zp-direct":
        "80f93338c061b72ed5608ae81161ba9e93d76b7cc75a062065023709a3779dad",
    "charsum-zp-fft":
        "a4fc8186f7a07fbffd5ca0609053092d90abae7d059f90f7d6e509fe5f620487",
    "charsum-zp_vec-direct":
        "d835c59e24905aa914186d611891e20e23124adf5f3821cdb7cf2335cbc26bd1",
    "charsum-zp_vec-fft":
        "66c7c11777fbd8bb0936ba225f5d428c6fae4725d408b4220622502e765dfa9d",
    "charsum-zp_vec-n3-fft":
        "2dd59e04beab78ee965302e8b1ea8509d8dd3b7eb1ed296dd103b13d39092ecd",
    "profile-fq_vec-p2-fft":
        "ffff40af974b660da4bc08dffc7a63f2c1e5797ed3477822ff126c473f319a52",
    "profile-fq_vec-p2-pairs":
        "dcaa1b213a88612bcf95e8494f771d93f0fbdedb34e96c09b05e55c5866e8485",
    "profile-fq_vec-p3-fft":
        "ffb8db50b0e6cdf4c7ced2c2ab865d3019ff4593ca81c361bd9688c7f0542fe4",
    "profile-fq_vec-p3-pairs":
        "7277156f10df273e1f34ef2a1c5cae32dcb8f772189acdfc811e0aae497915f2",
    "profile-zn-fft":
        "67963b1994cbd39d18d09c7d217163dbb640c0550a11c4af6dd862da7b7dfd61",
    "profile-zn-pairs":
        "69e47889201949fffe1a3e7b0036b9cbda50d3c5fcb482465add0927c2d5f3ec",
    "profile-zp-fft":
        "3f79f8971ee62598c8f6e1966553ac23c912828e74fedbbc3f29ea4b16a12d60",
    "profile-zp-pairs":
        "1aa68cf3240b05cb988dcdfb57a22a7d875b9b2d2933c8fdc97ee4535add7c3e",
    "profile-zp_vec-fft":
        "d7a1e3a5da27609444df89b6a5700823bbd39f20b226998e11ec9fed152c5af7",
    "profile-zp_vec-n3-fft":
        "96a26fa417ed76ae94ba3d952871e2fce4bbfef5a3c360c69cf895151c24acfe",
    "profile-zp_vec-pairs":
        "e8a009bb814b56a35a79837d64cbac9f707d5d764868df00eabd0f240bf080df",
}


def output_digest(tmp_path, source: dict, argv: list) -> str:
    path = tmp_path / "src.json"
    path.write_text(canonical_json(source))
    out = tmp_path / "out"
    assert main([argv[0], "--source", str(path), *argv[1:], "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_diagnostic_output_matches_golden(tmp_path, case):
    source, argv = CASES[case]
    assert output_digest(tmp_path, source, argv) == GOLDEN[case]
