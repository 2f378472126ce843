"""``msdoa single`` and ``msdoa crb`` still write the recorded bytes.

Each case runs in a temporary directory and every file it writes is
compared by SHA-256 with the digest recorded here. Like
``bench/reference.json``, the digests hold for one platform's numpy and
BLAS build: the spectra and bounds are formatted to 10 significant
digits, so a rounding change in a library can move them.
"""

import hashlib

import pytest

from msdoa import builtin_config_path, load_config
from msdoa.cli import main
from msdoa.harness import run_single

SINGLE = {
    "table1": ("table1", []),
    "table1_2d": ("table1_2d", []),
    "table2": ("table2", []),
    "table2_coherent": ("table2", ["coherence=coherent"]),
    "table1_ideal": ("table1", ["mode=ideal"]),
}

# The series header holds no drawn value, so every case writes the same one.
HEADER = "b4d338c0666820b65eed713a038620fddbf544588a0ecdab12499199eb291af0"

DIGESTS = {
    "table1": {
        "frequency.csv": "b7936a3e62420666f998b129ea7bb9cd5bec9fab160bb9d2b1821ded8728ba62",
        "series.f64": "416a055961fbba7a8a96125bb98fa3919d5c8989de4975f46ed3ca73471530dd",
        "snapshots.csv": "a3ead042d041c2de0a586702092fd0ad817e4c5f1aaa8deb905a22fc17ac351a",
        "spatial.csv": "6a246a6a121dc95ae4fce228d484d8b1cdc48c03f412c4f77cea2213b68491dd",
    },
    "table1_2d": {
        "frequency.csv": "a8bab87b47c57b0c591ca7a1ca93fc001de929b65436221b2918c5c40e7dd74a",
        "series.f64": "693c4e6bd1cf5a4e07d54ba7282a85d35d92f1d9a46aaec7416f66b0c887464b",
        "snapshots.csv": "02ac6f85f6c944a0094603c3fcbcc5537fd5af68ecb0a8a23c4a7f4034b188e3",
        "spatial.csv": "2bea9e6a908c98e7aaca66bb0b8d58acf3d8a6bd550442f9e660caa56f8448b0",
    },
    "table2": {
        "frequency.csv": "ee4668b40e065a4d93f158b0ff9d450ffa3c58e3c09a5d49e9ec06cccd352dfe",
        "series.f64": "ecbb4d9b8606d5d1e4ad9fe5df2df84d7f6cb2273e214d56bfdb7fd7660bf973",
        "snapshots.csv": "370a6a9d4a8bbeeb70caa1e8f082cc11cb48660d358e539aaf03a1e741d855a0",
        "spatial.csv": "4c3cdb413def79a6906a75271f768f49f7fed0c6c47a41cf17b041b13804f07b",
    },
    "table2_coherent": {
        "frequency.csv": "73136c3d0387cbc3ee70d4886715f67d1451239f69a89a24301aefe9104cce0d",
        "series.f64": "d3f5fcdbccc6a75b4edcbd4bae85fcc9d3fa1d51f341551da1f578c932dfee75",
        "snapshots.csv": "db4a49a5df91a79a8a919779b2162157a025e166463db2d063cf5365935c3d00",
        "spatial.csv": "99dfa8660d4b71d426c31344a7268255a5b65a13f2c42fb28b72403c3265d4b0",
    },
    "table1_ideal": {
        "frequency.csv": "e8eefe7b0a1ff25f0046206ec6ac297eac7b996202c978bab8f40223a86abb55",
        "series.f64": "cb38c42174321b7d06c5e0cb7eb42ec06e6e2d2ff0ad7ad93ad8fe8e9d270c88",
        "snapshots.csv": "ba298352b7ab5f42720be056c116afc45e57619c97eee015916ab0f3db86f51b",
        "spatial.csv": "8044e4a541a29254be7b3af6297de20bd145a4d95302bb12beeb72a6b8880057",
    },
}

CRB_DIGESTS = {
    "table1": "064873e6bce0a3e242da5c94a93cef60ddbb2c53b994444c89c34d68f24e2c40",
    "table1_2d": "ceeec5d4391ff0094d2376fa9ceaf58c41183e9492cbbb84f57fd1c135392d55",
}


def _digests(directory) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("case", sorted(SINGLE))
def test_single_writes_the_recorded_bytes(case, tmp_path):
    name, overrides = SINGLE[case]
    run_single(load_config(builtin_config_path(name), overrides), str(tmp_path / "run"))
    expected = {f"run_{suffix}": digest for suffix, digest in DIGESTS[case].items()}
    expected["run_series.f64.hdr"] = HEADER
    assert _digests(tmp_path) == expected


@pytest.mark.parametrize("name", sorted(CRB_DIGESTS))
def test_crb_writes_the_recorded_bytes(name, tmp_path, capsys):
    assert main(["crb", "-c", builtin_config_path(name), "-o", str(tmp_path / "run")]) == 0
    assert _digests(tmp_path) == {"run_crb.csv": CRB_DIGESTS[name]}
