"""Byte-identity guard for the fixture generators: the sha256 of their output.

Covers every shipped preset at seeds 0-2 and the smoke preset at 100k rows,
plus smoke sizes that straddle the generators' chunk and flush edges. A
change to the generators that claims identical output must leave every
digest unchanged; a change that alters output on purpose must re-record
them (``python tests/test_fixture_golden.py`` prints the current table) and
say why. The script needs no test runner, so any interpreter with ``src`` on
its path can print the table for comparison.
"""

import hashlib
import io
import sys

from episurv.fixtures import generate_fixture, load_preset

PRESETS = ("annex-epi", "annex-gisaid", "annex-delta")
SMOKE_ROWS = (20, 8191, 65537, 100_000)


def _cases() -> dict[str, tuple[str, int | None, int]]:
    cases = {f"{name}-seed{seed}": (name, None, seed) for name in PRESETS for seed in range(3)}
    cases.update({f"smoke-{rows}-seed0": ("smoke", rows, 0) for rows in SMOKE_ROWS})
    return cases


CASES = _cases()

# Recorded on the per-row generators, before the row loops were rewritten
# per chunk; identical under Python 3.10, 3.11 and 3.13.
GOLDEN = {
    "annex-epi-seed0": "b66713fa925ce2ea4f2b49e87ce82a6e10b4d722652ce942b97d7b2db69c3eff",
    "annex-epi-seed1": "330fa5d5e307aa85045f6f372b52df3814132d6da93a8eac6565b7dae26b8b42",
    "annex-epi-seed2": "002b8dfa4c609083e7d1a55d8e4de2766f9368fd50c3bb251771a5f5f7211c60",
    "annex-gisaid-seed0": "fca1f2ade1e37f5e29d4d20c3968188a4c2fb250da65cd76c3da58e4f45c2e53",
    "annex-gisaid-seed1": "bd7f658448ea0ca421143d1c44df14a7b2366f65cfda79aa11fdbdadbb0fb990",
    "annex-gisaid-seed2": "f9c2d7f471658c612d15072d3507eb536b1449af0d2fd07ea98b7fa1e93423da",
    "annex-delta-seed0": "fe77f4ed1146ff6ee8824b5e24af8450cb391e62b7a4877ac0a0a05ae9af6723",
    "annex-delta-seed1": "ce25f7c081b8bd301389f680461ab71b735030ffb00ae0e9423f618b116602f1",
    "annex-delta-seed2": "4bd13d31b81fa47e938f153e1154485453430a80634d60f7fbe918e341539f5a",
    "smoke-20-seed0": "92a73411b7af63dc3e7f0ddc98c4b6d3c4c8768511780814dea7ca00bc33076e",
    "smoke-8191-seed0": "20173cb2cd5e87d5469f3e855c83f4a06bb6d59bcbecd31ae0219cb18b7aab14",
    "smoke-65537-seed0": "998ff0214e92e508a12edae37b7842f14bfe357718c73445910d086c2a496437",
    "smoke-100000-seed0": "0ca2f8a4b7f855710876f12a50253f16bd5f4632864afada16e5562a46fb9552",
}


def _spec(name: str):
    preset, rows, seed = CASES[name]
    return load_preset(preset, rows=rows, seed=seed)


def _digest(name: str) -> str:
    return hashlib.sha256(generate_fixture(_spec(name))).hexdigest()


def test_digests():
    assert {name: _digest(name) for name in CASES} == GOLDEN


def test_out_targets_agree(tmp_path):
    for name in ("smoke-65537-seed0", "annex-gisaid-seed0"):
        expected = generate_fixture(_spec(name))
        path = tmp_path / f"{name}.out"
        assert generate_fixture(_spec(name), path) is None
        assert generate_fixture(_spec(name), str(path)) is None
        assert path.read_bytes() == expected
        stream = io.BytesIO()
        assert generate_fixture(_spec(name), stream) is None
        assert stream.getvalue() == expected


if __name__ == "__main__":
    for name in CASES:
        sys.stdout.write(f'    "{name}": "{_digest(name)}",\n')
