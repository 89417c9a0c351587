"""Golden output bytes: the table commands must keep their exact output.

Each case runs one subcommand on a small configuration in CSV and in JSON
and compares the SHA-256 of the bytes written with ``--out``.  The hashes
were recorded before the series engine and the table writer were rewritten,
so any change in a printed digit, a flag, the row order or the JSON layout
fails here.  A change that alters the output on purpose must say so and
record new hashes.
"""

import hashlib
import json

import pytest

from thermaljcm.cli import EXIT_OK, main


def _doc(l, alpha, thermal, grid, n_max, oracle=None):
    doc = {
        "schema": 1,
        "model": {"l": l, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": alpha},
        "thermal": thermal,
        "grid": grid,
        "truncation": {"n_max": n_max},
    }
    if oracle is not None:
        doc["oracle"] = oracle
    return doc


CASES = {
    "pe_series_l2_oracle": ("pe-series", _doc(
        2, 2.0, {"inv_beta": 0.1}, {"t_start": 0.0, "t_stop": 3.0, "dt": 0.05}, 40,
        oracle={"with_oracle": True, "n_fock": 40})),
    "pe_series_l3_complex": ("pe-series", _doc(
        3, [1.5, -0.7], {"inv_beta": 0.16}, {"t_start": 0.5, "t_stop": 4.0, "dt": 0.07}, 50)),
    "period_sweep_l2": ("period-sweep", _doc(
        2, 4.0, {"inv_beta_grid": [0.0, 0.08, 0.16]}, {}, 60)),
    # high temperatures: 'unstable' and 'no-revival' rows, a nan period
    "period_sweep_l1": ("period-sweep", _doc(
        1, 3.0, {"inv_beta_grid": [0.0, 0.5, 1.0]}, {}, 50)),
    "period_sweep_l3": ("period-sweep", _doc(
        3, 2.0, {"inv_beta_grid": [0.0, 0.3, 0.6]}, {}, 50)),
    "coherence_map_l2": ("coherence-map", _doc(
        2, 3.0, {"inv_beta_grid": [0.0, 0.08, 0.16]}, {"t_start": 0.0, "t_stop": 6.0, "dt": 0.05},
        50)),
    # high temperatures: rows with projection_applied = 1
    "coherence_map_l1": ("coherence-map", _doc(
        1, 3.0, {"inv_beta_grid": [0.0, 0.4, 0.8]}, {"t_start": 0.0, "t_stop": 5.0, "dt": 0.1}, 50)),
}

GOLDEN = {
    "coherence_map_l1.csv": "c34a59bacefb8ebc24019faead59d936b9a7c80f31439c42ccf4bd0965a44d46",
    "coherence_map_l1.json": "bd0c48b9f0d8e63d16d81d7063a78c2aee6fa40818df52a82be49e9ad0df490a",
    "coherence_map_l2.csv": "89794cf3ffb8fa3cebf6c144b733e3a79ded11f3e7d0d0a461e1f6d7ff4fb9c0",
    "coherence_map_l2.json": "d67e279896d08a1b6bee12d1e5604189cadc394799bf2f78c96354a667b64ec4",
    "pe_series_l2_oracle.csv": "bbba48c75e54a2b781b82fffdcbcf7ddf09de4d5d855bf36be399c99d3eeb2ff",
    "pe_series_l2_oracle.json": "3c88e3085ae13f61fa4bd05034347f8634ae8bd4e4c7746f80a04e75cfad8d91",
    "pe_series_l3_complex.csv": "af6187433fc8889b0df8e62e6420440f109d11fda6d2a5b9bcff549648fe07ee",
    "pe_series_l3_complex.json": "b1bc4a245d38d9e9d8a83a4c4f9879b2b1bf5f2869ecc21275b2955b83fe0437",
    "period_sweep_l1.csv": "435882f640d50b0cf9db1212efd668addec7c4dd53664d8676f516f97900bc43",
    "period_sweep_l1.json": "24b8b5793504210a9bb75316674a399b68b4ab10df91163a6b463a04114863a4",
    "period_sweep_l2.csv": "f632081ed784ca3747cf97d707fff55a0440ebf952beb4b82df37c59108f4b05",
    "period_sweep_l2.json": "42fde98f04acd342e887ee70182622660b0b8fa2e6215cf3e57f3d8b64d31e74",
    "period_sweep_l3.csv": "31a682066756d7877092f0b3e68278af270c975baec2f62318cbc1364151fcd0",
    "period_sweep_l3.json": "a7803f606316c78408712afb4de6b04fdd1c3d4c4ff84d3d752a1c97f0927867",
}


def run_case(tmp_path, name: str, fmt: str) -> bytes:
    command, doc = CASES[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / f"{name}.{fmt}"
    rc = main([command, "--config", str(cfg), "--format", fmt, "--out", str(out)])
    assert rc == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(tmp_path, name, fmt):
    digest = hashlib.sha256(run_case(tmp_path, name, fmt)).hexdigest()
    assert digest == GOLDEN[f"{name}.{fmt}"]
