"""Golden digests of suite JSON: every suite's ``to_json()`` without its
``seconds`` must keep these SHA-256 digests, at reduced sizes and at the
kwargs the benchmark's verify workload passes. The digests were recorded
before the suites were batched (numpy 2.4.6, x86-64), so they pin rows,
failures and notes byte for byte, floats and RNG draw order included. The
acceptance-default runs are pinned in ``test_acceptance.py``.
"""

import pytest

from addext import suites
from addext.canonical import digest


def suite_digest(result) -> str:
    return digest({k: v for k, v in result.to_json().items() if k != "seconds"})


CASES = {
    "weil-small": ("weil", {"primes": [11, 13, 101], "polys_per_p": 40}),
    "weil-seed5": ("weil", {"primes": [11, 199], "polys_per_p": 60, "dmin": 1,
                            "dmax": 4, "seed": 5}),
    "partial-ap-small": ("partial-ap", {"primes": [101], "polys_per_p": 10,
                                        "a_per_poly": 5}),
    "l1-small": ("l1", {"pmax": 61}),
    "xor-small": ("xor", {"moduli": [15, 21]}),
    "lines-small": ("lines", {"qs": [4, 9]}),
    "gap-profile-small": ("gap-profile", {"primes": [101], "sides": [8],
                                          "gaps_per_case": 5}),
    "bohr-small": ("bohr", {"pmax": 61, "literal_pmax": 13}),
    "bohr-rhos": ("bohr", {"pmax": 31, "rhos": [0.01, 0.45, 0.49], "literal_pmax": 7}),
    "cauchy-davenport-small": ("cauchy-davenport", {"primes": [2, 3, 5, 101],
                                                    "trials": 300}),
    "cauchy-davenport-seed5": ("cauchy-davenport", {"primes": [499], "trials": 200,
                                                    "seed": 5}),
    "transport-small": ("transport", {"primes": [3, 7, 101], "sources_per_p": 20}),
    "transport-alpha": ("transport", {"primes": [101], "sources_per_p": 10,
                                      "alpha": 0.9, "seed": 5}),
    "zp-trend-small": ("zp-trend", {"primes": [101, 499]}),
    "zp-trend-failing": ("zp-trend", {"primes": [11, 7, 13], "threshold": 0.1}),
    "moments-small": ("moments", {"parseval_sets": 10}),
    "norms-small": ("norms", {"qs": [2, 3, 4], "kmax": 3}),
    # the verify workload's kwargs
    "bohr-workload": ("bohr", {"pmax": 199}),
    "cauchy-davenport-workload": ("cauchy-davenport", {"trials": 3000}),
    "transport-workload": ("transport", {"sources_per_p": 60}),
    "norms-workload": ("norms", {"qs": [2, 3, 4, 5], "kmax": 3}),
}

GOLDEN = {
    "bohr-rhos":
        "135203edd67a9f13ed563fa8d4c6bf2116e3d37562984ed2eb9b2fbc9aad9884",
    "bohr-small":
        "14597923f4fce9b7061d039a09987760c3717c7334fce17a64a53a3cd355a8d1",
    "bohr-workload":
        "f8f9657e1df8c3a74a0751652b41aea2282c53744c5bb2e4cf85084e64edfdad",
    "cauchy-davenport-seed5":
        "632820d17ce6c52088f550fe6b19b683ef25e28e134e6b052482aaf8ad1f5795",
    "cauchy-davenport-small":
        "c4e5a280dbe1ff752c7a1adb56fc012f4fe514f1fffc830ff9a389a1a58c94b8",
    "cauchy-davenport-workload":
        "e5d9fff25b4a50130e7491f72eecce7a10155dec6e898811c2070ec354630737",
    "gap-profile-small":
        "7af985f63ebd5825b34f7f09de078e447fd5b5ebdd41a784365f8bb272dbe66d",
    "l1-small":
        "052aa836cf063a702ff993b015e4a2678d5ca42bd06090a75ef1559eb8fa4e3f",
    "lines-small":
        "c0e79250c44a6663bfae4cd44b0c4e080bbd0be05f2b4a31070826629cd15798",
    "moments-small":
        "c8e44d478a3aec27d75c3af24be0326a6384dc12b786c67147885dd626ec8423",
    "norms-small":
        "34145ef2d0c681de7700a9b690a399e1b6936b459ff6c4cf41d664a11588346e",
    "norms-workload":
        "28df3a9edddd057183ea8addc5817e6aeb8a7f8806277034bbd41aa2c9ecb550",
    "partial-ap-small":
        "dff7e47d3e0257c1864c9360a046676d6e7d35802baf6174fccb94e591ba85fd",
    "transport-alpha":
        "3f575b469080cb3f9ac29677574f3c6e9058c2a239045d47fba5995b42c3394c",
    "transport-small":
        "16d5a96a7768821587151720aae7a371a3f958b6964094e737095ba9f78f5e82",
    "transport-workload":
        "890bc96d7103ab1e09884da0ce436108bc4ee33c466d6a96e52801780b0e2eb8",
    "weil-seed5":
        "5d635317e3dec9a7df28642d8e56a4e62a33a4187d9a959ea9e5f818f74b8400",
    "weil-small":
        "646b8dbd1c741a221720f113fef8ea2c7248a823b76ed1506dd91fce77792b00",
    "xor-small":
        "13bfb405683f94c34c26590fa10b8e572ef206852d0a63cffd5cf4ba26c938a9",
    "zp-trend-failing":
        "c902269c0f435fe6b198fcb64269f6f2af1e7a7925aa823e3dff4393fe7e198a",
    "zp-trend-small":
        "ec8b61252bf15cbcf496ebe7f78caebbbfd02d1896be828057f80a7e83dc97b4",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_suite_json_matches_golden(case):
    name, kwargs = CASES[case]
    assert suite_digest(suites.SUITES[name](**kwargs)) == GOLDEN[case]
