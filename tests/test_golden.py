"""Golden output bytes: the table commands must keep their exact output.

Each case runs one subcommand on a small configuration in CSV and in JSON
and compares the SHA-256 of the bytes written with ``--out``.  The hashes
were recorded before the series engine and the table writer were rewritten,
so any change in a printed digit, a flag, the row order or the JSON layout
fails here.  The two ``*_oracle`` cases at the automatic Fock cutoff were
recorded with the doubled-space ``pe_curve``, before it became a
reduced-state computation, and the three ``*_oracle`` hashes hold for the
one-sin ``pe_curve`` on the series' reduction too: its ``pe_oracle`` moved by
at most 3.3e-16, below the 12 printed digits.  A change that alters the
output on purpose must say so and record new hashes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    # the reduced-state exact solver: resonant l = 1, and l = 3 detuned by
    # delta = 2 at a complex amplitude, both with the automatic Fock cutoff
    "pe_series_l1_oracle": ("pe-series", _doc(
        1, 2.0, {"inv_beta": 0.1}, {"t_start": 0.0, "t_stop": 6.0, "dt": 0.05}, 40,
        oracle={"with_oracle": True})),
    "pe_series_l3_oracle": ("pe-series", _doc(
        3, [1.2, 0.5], {"inv_beta": 0.1}, {"t_start": 0.0, "t_stop": 2.0, "dt": 0.02}, 40,
        oracle={"with_oracle": True})),
    "pe_series_l3_complex": ("pe-series", _doc(
        3, [1.5, -0.7], {"inv_beta": 0.16}, {"t_start": 0.5, "t_stop": 4.0, "dt": 0.07}, 50)),
    "period_sweep_l2": ("period-sweep", _doc(
        2, 4.0, {"inv_beta_grid": [0.0, 0.08, 0.16]}, {}, 60)),
    # high temperatures: 'unstable' and 'no-revival' rows, a nan period
    "period_sweep_l1": ("period-sweep", _doc(
        1, 3.0, {"inv_beta_grid": [0.0, 0.5, 1.0]}, {}, 50)),
    "period_sweep_l3": ("period-sweep", _doc(
        3, 2.0, {"inv_beta_grid": [0.0, 0.3, 0.6]}, {}, 50)),
    # zero temperature alone: resonant l = 1, l = 4 detuned by delta = 3, and
    # a positive 1/beta whose Bogoliubov angles are exactly those of 1/beta = 0
    "period_sweep_l1_zero_temperature": ("period-sweep", _doc(
        1, 3.0, {"inv_beta_grid": [0.0]}, {}, 50)),
    "period_sweep_l4_zero_temperature": ("period-sweep", _doc(
        4, 2.0, {"inv_beta_grid": [0.0]}, {}, 50)),
    "period_sweep_l2_tiny_temperature": ("period-sweep", _doc(
        2, 4.0, {"inv_beta_grid": [1e-320]}, {}, 60)),
    "coherence_map_l2": ("coherence-map", _doc(
        2, 3.0, {"inv_beta_grid": [0.0, 0.08, 0.16]}, {"t_start": 0.0, "t_stop": 6.0, "dt": 0.05},
        50)),
    # high temperatures: rows with projection_applied = 1
    "coherence_map_l1": ("coherence-map", _doc(
        1, 3.0, {"inv_beta_grid": [0.0, 0.4, 0.8]}, {"t_start": 0.0, "t_stop": 5.0, "dt": 0.1}, 50)),
    # both sides of the cosine-sum identity, summed to the Poisson cut of
    # |alpha|^2; the temperature and truncation are not read
    "approx_check_l2": ("approx-check", _doc(
        2, 4.0, {"inv_beta": 0.0}, {"t_start": 0.0, "t_stop": 4.0, "dt": 0.02}, 40)),
    "approx_check_l3_complex": ("approx-check", _doc(
        3, [1.5, -0.7], {"inv_beta": 0.0}, {"t_start": 0.5, "t_stop": 6.0, "dt": 0.05}, 40)),
}

GOLDEN = {
    "approx_check_l2.csv": "bd77de2933869bb945f307bd101ead84f035a76c51e211e82f4185851ee0011c",
    "approx_check_l2.json": "a00fd036ee6591366249578f35450d831e0c3938e3f8fb00ec1dd4413028950d",
    "approx_check_l3_complex.csv": "26552a924f6b9bbb9ddfe9ae3b28212aed2190771afe8a9640cf7186d2e24996",
    "approx_check_l3_complex.json": "b1ddb80e574bb9437af9c5658d67591bf553a4833080943ade93ad27479e9f9d",
    "coherence_map_l1.csv": "c34a59bacefb8ebc24019faead59d936b9a7c80f31439c42ccf4bd0965a44d46",
    "coherence_map_l1.json": "bd0c48b9f0d8e63d16d81d7063a78c2aee6fa40818df52a82be49e9ad0df490a",
    "coherence_map_l2.csv": "89794cf3ffb8fa3cebf6c144b733e3a79ded11f3e7d0d0a461e1f6d7ff4fb9c0",
    "coherence_map_l2.json": "d67e279896d08a1b6bee12d1e5604189cadc394799bf2f78c96354a667b64ec4",
    "pe_series_l2_oracle.csv": "bbba48c75e54a2b781b82fffdcbcf7ddf09de4d5d855bf36be399c99d3eeb2ff",
    "pe_series_l2_oracle.json": "3c88e3085ae13f61fa4bd05034347f8634ae8bd4e4c7746f80a04e75cfad8d91",
    "pe_series_l1_oracle.csv": "50430399505490e13734fc30bfb9cd3010115711325816ce3c95d5380c350dfc",
    "pe_series_l1_oracle.json": "b67829754b13f7a5fa9be67b6694c31ec36c8978ab64080e328bc77090d7ef08",
    "pe_series_l3_oracle.csv": "ea362b2e6ceab55f2245bd4765a184e8cf7020a119f35d18994fe4ceb6dc1f97",
    "pe_series_l3_oracle.json": "54f643bcc8f2c632e1aebe32a011295f79493c4f66fddc34bc6cbcb2e9a39385",
    "pe_series_l3_complex.csv": "af6187433fc8889b0df8e62e6420440f109d11fda6d2a5b9bcff549648fe07ee",
    "pe_series_l3_complex.json": "b1bc4a245d38d9e9d8a83a4c4f9879b2b1bf5f2869ecc21275b2955b83fe0437",
    "period_sweep_l1.csv": "435882f640d50b0cf9db1212efd668addec7c4dd53664d8676f516f97900bc43",
    "period_sweep_l1.json": "24b8b5793504210a9bb75316674a399b68b4ab10df91163a6b463a04114863a4",
    "period_sweep_l2.csv": "f632081ed784ca3747cf97d707fff55a0440ebf952beb4b82df37c59108f4b05",
    "period_sweep_l2.json": "42fde98f04acd342e887ee70182622660b0b8fa2e6215cf3e57f3d8b64d31e74",
    # recorded before the zero-temperature series build
    "period_sweep_l1_zero_temperature.csv": "e5ec8d4eef5030447c4bd33f3a8a2822acbdaa1acfcd76581bbb5712a3b0ced9",
    "period_sweep_l1_zero_temperature.json": "1547a8bafa95041d52d0c4ea83243af15396c047e690723f55e6fd9c0926f294",
    "period_sweep_l2_tiny_temperature.csv": "53443f902e9a8efb55e93788cceb12538bf68e17bdf6ad9bed1d47809e84b5c3",
    "period_sweep_l2_tiny_temperature.json": "eb4b3f70ab288bfa17156e4fa38a3e418c7ffea8b54932865c680522aefcb2e7",
    "period_sweep_l4_zero_temperature.csv": "adb4588f5809b1e7791fb51e938e3a591c8528cbc6118e9aac553ef0d534a78b",
    "period_sweep_l4_zero_temperature.json": "497d966728cd6cc415931901e1fd9a613ef58f65aba3a8beac574ae00595c8a6",
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


#: preset outputs no other hash covers: approx-check prints both sides of the
#: cosine-sum identity, and the fig1a pe-series grid ends at 1.35 x t0_period
PRESET_GOLDEN = {
    ("approx-check", "fig1a"): "0366682da594081ff12629d1ce76d50e8ee9feaa9d8844775858e18b472d8b5e",
    ("approx-check", "fig1b"): "da301d77b583dea3e3c254c9c78c0c6cf32737995cf952c11fc08b6a1d25ad60",
    ("pe-series", "fig1a"): "3b717077becc71c8c5e4ae4883d8c95f53d8336132e6b8df0dd235c60b829fe2",
}


@pytest.mark.parametrize("command, preset", sorted(PRESET_GOLDEN))
def test_preset_output_matches_golden(tmp_path, command, preset):
    out = tmp_path / f"{preset}.csv"
    assert main([command, "--preset", preset, "--format", "csv", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PRESET_GOLDEN[(command, preset)]


#: the default oracle-validate report, which runs the exact solver through
#: ``oracle.reduce_atom`` and the propagator blocks
ORACLE_VALIDATE_SHA256 = "f6fd6c4c0cc42df7e49ded458222b99928766ed94081dd66fb084935af894a56"


def test_oracle_validate_report_matches_golden(tmp_path):
    out = tmp_path / "oracle_validate.json"
    assert main(["oracle-validate", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ORACLE_VALIDATE_SHA256


#: run in a fresh interpreter: the series commands, then oracle-validate, with
#: a check after each series command that no scipy module is loaded
SCIPY_FREE_SCRIPT = """
import hashlib, json, sys
import thermaljcm.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert scipy_modules() == [], scipy_modules()
digests = {}
for name, command, config, out in json.loads(sys.argv[1]):
    assert cli.main([command, "--config", config, "--format", "csv", "--out", out]) == 0
    assert scipy_modules() == [], (command, scipy_modules())
    digests[name] = hashlib.sha256(open(out, "rb").read()).hexdigest()
assert cli.main(["oracle-validate", "--out", sys.argv[2]]) == 0
digests["oracle-validate"] = hashlib.sha256(open(sys.argv[2], "rb").read()).hexdigest()
print(json.dumps(digests))
"""


def test_series_commands_load_no_scipy(tmp_path):
    # import thermaljcm.cli, pe-series (no oracle), period-sweep (with and
    # without a temperature) and coherence-map load no scipy module and keep
    # their golden bytes; the exact solver imports scipy.linalg on its first
    # exponential
    runs = []
    for name in ("pe_series_l3_complex", "period_sweep_l2", "period_sweep_l4_zero_temperature",
                 "coherence_map_l2"):
        command, doc = CASES[name]
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        runs.append((name, command, str(cfg), str(tmp_path / f"{name}.csv")))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, json.dumps(runs),
         str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert digests.pop("oracle-validate") == ORACLE_VALIDATE_SHA256
    assert digests == {name: GOLDEN[f"{name}.csv"] for name, *_ in runs}
