"""Byte-identity guard: the sha256 of every table the CLI prints.

Covers every epi-report table, rank (all metrics), scatter and severity on a
3000-row smoke file (seed 0), and every genomic-report table on the
annex-gisaid preset, each in tsv, json and markdown. A refactor that claims
identical output must leave every digest unchanged; a change that alters
output on purpose must re-record the digests (``python tests/test_golden.py``
prints the current table) and say why.
"""

import hashlib
import sys

import pytest

from episurv.cli import main
from episurv.fixtures import generate_fixture, load_preset

SMOKE_ROWS = 3000
FORMATS = ("tsv", "json", "markdown")

EPI_COMMANDS = {
    **{t: ["epi-report", "--table", t] for t in ("t1", "t2", "t3", "t4", "t5", "t6", "t7")},
    "metrics": ["epi-report"],
    "metrics-strata": ["epi-report", "--group-by", "state,municipality,sex,age-group"],
    **{f"comorbidity-{s}": ["epi-report", "--table", "comorbidity-profile", "--subcohort", s]
       for s in ("hospitalized-positive", "deaths-positive", "deaths-icu-intubated")},
    **{f"rank-{m}": ["rank", "--metric", m] for m in ("fatality", "positivity", "tgi3")},
    "scatter": ["scatter"],
    "severity": ["severity"],
}
GENOMIC_COMMANDS = {
    t: ["genomic-report", "--table", t]
    for t in ("g3-shares", "t8", "t9", "t10", "t11", "t12", "t13")
}
CASES = [(name, fmt) for name in (*EPI_COMMANDS, *GENOMIC_COMMANDS) for fmt in FORMATS]

# Recorded before the Counter-projection refactor of the count loops.
GOLDEN = {
    "t1-tsv": "a1dc1d89dcfdbf32c65421281147422cb9e8d14bca52477f2dc5b1ffd39664b9",
    "t1-json": "2ac9d90d9de3fd3b7e3fea70e836f95d437a95ab54177f548b8ffe49617288c9",
    "t1-markdown": "f296114d7eb4f0dff1f208d028d8f2ae41b374371837e17ecf8f3eb8a2cc6522",
    "t2-tsv": "e1a121f2c4e7e3c57ff31ad2ce7269efc91a25e8f0cedd68e244a4c178725eaa",
    "t2-json": "fd785f714b047b04aad3b4be4baa18c76e0b7ebca8b37afe07c7ce8fa1e3c3f3",
    "t2-markdown": "734a706df9839e620cdf838d2906505d6ace0ef948ad20ab6c98fafeea6b0601",
    "t3-tsv": "cc7796d906d80a8d0c9f73971d38b7e18ecefeadd7dc3e36b5ab777d2719bc8e",
    "t3-json": "f419477bdf43156bdf4c4d6fd7d8d3349ddf4315bf1482c1090f29716fef5120",
    "t3-markdown": "8538d67acb99fe0bb272c65a05294d4dc278fccd42ab827bdde7e0500c198820",
    "t4-tsv": "c38504f929fb0360d956dc5582f9b0265cfc5bfedf8b1384a04f267e939dcd10",
    "t4-json": "9603c2004d85c88d90b9ee5f3196ea3de711a0c439c9d2ba494039e9a8e8f3a6",
    "t4-markdown": "27738a86935c08214dc562cdf958ffa525a6fcf17399d52537672dda40b3b182",
    "t5-tsv": "3737a87bf66707a8378a373af8e8e305312f8aefa9b52d12efcab3debd421116",
    "t5-json": "9fe0db485f58765069be0e668ff69efd9163e2ae86c1b94dd420778a744d7657",
    "t5-markdown": "2cedb20bb397811b24e0792965eff69c1734136a8823f1881dfe814dcf918597",
    "t6-tsv": "22721390849f1543b31bb5c6fbd78f1c344c2011f2f018f4067de4e67ce7a0a0",
    "t6-json": "30d28fdb8a3fc43783bd90b52b036a9c1bf8ed292156a0f104373a60e5bd5fe7",
    "t6-markdown": "5065fb13b6bc2f6cf9cdcd3060865115b757add08f2a77313eb8bfef0a50d6d3",
    "t7-tsv": "f8f766bde716b6cc07e4765e48f24184b9a6c8ead9e75136586a95b5d0cd2d54",
    "t7-json": "7cf81ff44b83a6d7f9afefb9d1b5067c1c7b4f12c47bf7340be4b5a24ea48260",
    "t7-markdown": "e9d5d9cd0c05768f6ed165ee8509c9f98339596727f56b7121f82cbf81d06ce0",
    "metrics-tsv": "08f7335a00e5824c7b36706f7135064cb3294677217163374560d3b994a581a4",
    "metrics-json": "621cd796155ea5b521adb677a4e708bce96a3e3b13ba055bd212c933b7b7734b",
    "metrics-markdown": "7fb71933426fd78c4707fa33ac1c713ad3f878cd13c6f327e45d5b0534b46292",
    "metrics-strata-tsv": "1f87020bf70675e9e42d48bb567568db9a5ab99cf0155b06e731a8b423cf5b20",
    "metrics-strata-json": "e31b8f3f59a366939eec518178f82148f9c6f8e44fbf9fd1d1151cfce8a3a485",
    "metrics-strata-markdown": "02a382cba93ce802b41d7a05e6db73bb3557b7583237c2dbf5c3475fcde1c7b1",
    "comorbidity-hospitalized-positive-tsv": "5d07edd2fa30375c1b824c407dd4a3b85e9d41b4fd8b40d0ec0837a57d97eb43",
    "comorbidity-hospitalized-positive-json": "5eb4a3cf08f257671472a8455fb181f5e2d598d737de60880f5ccc3e57125a4f",
    "comorbidity-hospitalized-positive-markdown": "baf05ef8224f0ed038c1fcd0925bd7bfc8d7a9ad473677c6f5fd891d45b078e1",
    "comorbidity-deaths-positive-tsv": "7af4327b84db9cd34ed8668f2fb60fb7eb0accb31a0b286b5c39b491fb1228c9",
    "comorbidity-deaths-positive-json": "bc66bf8d785bd7808a51a639e047a79b402261236aaf6ef4f81cdeebca901624",
    "comorbidity-deaths-positive-markdown": "ea879a24a21589be488458793d3a53632af2df6137d52fcd9adc1a245912fffa",
    "comorbidity-deaths-icu-intubated-tsv": "bda87923fe4ffd46ceb64c4efa06191d456634dd42d4e0c4ea04bd39a5ec1884",
    "comorbidity-deaths-icu-intubated-json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "comorbidity-deaths-icu-intubated-markdown": "67ba854c15bdf203c54e5bb0f1a21ee38bcfb22c561c5017e2d421e3428c0b3f",
    "rank-fatality-tsv": "bde9a1df9c5f7d099242e37252b8e2ed42d85ed0dd1a15f61c7f771e76ebe1b9",
    "rank-fatality-json": "84beb18c7edf3d068a99b0788af1cd0af6b295c904922e07ea7dc9b2fb029cab",
    "rank-fatality-markdown": "7d1edc5f887062983d7a1b86ecb0e013e3c38e87b15b3131288663f816a28432",
    "rank-positivity-tsv": "88c6282a14ee6790ac53587f9aa74e888d5f9077732afdc832722cfe9650e9b9",
    "rank-positivity-json": "100ecb6408292a4701431d5d3179395bcf66661dcea4c203054e1af148911970",
    "rank-positivity-markdown": "043b134ef5407277c242f713e061da062012cec77bccf9b0ada9de90958a894d",
    "rank-tgi3-tsv": "865d12a0b44d763073919a6c1ee06868709521865f8b23be40390f02c3e21bc2",
    "rank-tgi3-json": "fc24ae0bad6437d3b4d4b0359861de60d94435afd1fea7a9c79424eff2099352",
    "rank-tgi3-markdown": "f6122715c912e5b721a78a02fc26c6aeaa7daf1afab81aa605b654def7aca6e1",
    "scatter-tsv": "8deab102f33bf477c3d56ef0c7b29ee9fa857026b1ef34dae4dc2861bf6c5e43",
    "scatter-json": "75752907cafc51b1f9985295190c64f0cbe0d28d2e92e1e7ddbb20ebfad58735",
    "scatter-markdown": "83560c70e00ae2b97b91da80f67ef6d298747e65cc2d724890ff694c3a183e6a",
    "severity-tsv": "99475d3f0d57ac7983fb0a505c4c1662565c6131f6c061afa7b664c8d0b81e58",
    "severity-json": "63c9a1c21f5daf70d3c7d3894976eac2a032aebde5b814f826434b43a8dbedcd",
    "severity-markdown": "d5548a454f31768e2a540f949223a18a194ff882a66c3af857513c696bd9e4c3",
    "g3-shares-tsv": "21370db0fa8cbda157bb63368c829811ec2a80f5e92481cbd25cbc2b910d6eed",
    "g3-shares-json": "b7f1faa06191ea4b395bc40903647f8256be09f1870afa2ef40055049a706238",
    "g3-shares-markdown": "f71c11f74588ee04e350ea70c2050b165b73663264dca48a77fbe6c25dc0219e",
    "t8-tsv": "4e1c00f39729a22abdc2ce553bc5c5b8388216f142d3a51d2b36dc6c31f0c2b0",
    "t8-json": "ab8768745a228423175683efaea23bca346a08a8d948939c28d91d72cb3f40fe",
    "t8-markdown": "ec5307787070e5d9fba83c008f9bd974ee19a46876e8b2322af4f06513355169",
    "t9-tsv": "d953a5e4cb7a4e2632fb9fabe4cac3e15a187258c9adff543eee2aa16c12ad25",
    "t9-json": "a6bfbfb3db2ce974997580776fba57ebc9290e7bffdecd0c76268a831e4b420f",
    "t9-markdown": "0b58412a6b030664e015ce9e9390626185329d30ec88ea3900bba37a963e8153",
    "t10-tsv": "c76cf5a9d9fff6e497832e97bc390b8ad023e82aa88ecd53ab9b5ccc9fc32177",
    "t10-json": "88535302f8cddbd72e5e44f24cf0e277f3c5a69f2445d0a2f327683f752425d8",
    "t10-markdown": "df458302c21dff70ebd807f34b3552907dd67138180fef68b1687fa9ce7f83d5",
    "t11-tsv": "d2f5008e011934b1901d5240076cf03256f164d202f46b931c0de110b5d563ac",
    "t11-json": "737c8d462d3fe758fae143784230010777fb2e88a332ad9ed9c97a2022aa0bf3",
    "t11-markdown": "f4a57ed8048fd8a5e6ecb634edb9933cfe289ba9126a72d783a3d43fa922248a",
    "t12-tsv": "15664375a291af97d20b100e63044b3a59f7c9df207a1d9b2ca10eb9a6a525f1",
    "t12-json": "be9ada6e4024337ea378c7b65fe5efe52641f90e7605db70071838d2b847a2b1",
    "t12-markdown": "98c6a05fd3e204187b9d9cf668f1ad8811cfd6caf1ec33138b0f2ff0a345ccbb",
    "t13-tsv": "b0d3bd10e43a5656b7c6fc25afed58ebaaaefc3a762b9b49f2289f3bbade0590",
    "t13-json": "b1d5ffedd0b6ca972319f3b3e325102bf9875511cbd1f3a1d240d6a1d150d725",
    "t13-markdown": "e070767c1f4dfada9a4bff90487dbd9e1591fccae9617e219ae7ad55cf39321d",
}


def _inputs(directory) -> dict[str, str]:
    smoke = directory / "smoke.csv"
    generate_fixture(load_preset("smoke", rows=SMOKE_ROWS, seed=0), smoke)
    gisaid = directory / "annex_gisaid.tsv"
    generate_fixture(load_preset("annex-gisaid"), gisaid)
    return {"epi": str(smoke), "genomic": str(gisaid)}


def _argv(name: str, fmt: str, inputs: dict[str, str]) -> list[str]:
    if name in EPI_COMMANDS:
        return [*EPI_COMMANDS[name], "-i", inputs["epi"], "-f", fmt]
    return [*GENOMIC_COMMANDS[name], "-i", inputs["genomic"], "-f", fmt]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_stdout_digest(name, fmt, inputs, capsysbinary):
    assert main(_argv(name, fmt, inputs)) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == GOLDEN[f"{name}-{fmt}"]


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stdout
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        paths = _inputs(Path(tmp))
        for name, fmt in CASES:
            buf = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with redirect_stdout(buf):
                main(_argv(name, fmt, paths))
            digest = hashlib.sha256(buf.buffer.getvalue()).hexdigest()
            sys.stdout.write(f'    "{name}-{fmt}": "{digest}",\n')
