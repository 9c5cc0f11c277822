"""Golden `--json` output: the sha256 of each command's stdout, with every
`stats` object removed, is pinned, so a change to the rank kernel, the
flat enumeration or the search layer cannot alter any answer, flat or
order unnoticed.  The `stats` counters measure work and may change when
the work does; everything else is the stable CLI contract.  The matrix
text of catalog references, as `catalog --export` writes it, is pinned
the same way.
"""

import hashlib
import json

import pytest

from flatkit.catalog import build_ref
from flatkit.cli import main
from flatkit.matroid import write_matrix

# command (run with --json) -> (exit code, digest)
GOLDEN = {
    "analyze ag23_power:2 --flats 2":
        (0, "8994d4e40b8de8ad1fe3c0b908f34f77e0893cef1c284c6b4b88b3af0196ae8c"),
    "analyze ag23_power:2 --flats 3":
        (0, "f9e6166f3427145b39d948ca5295c0701af1f2cfc7e239da7278ea6afd6874cd"),
    "analyze motzkin --flats 2":
        (0, "c54f89c5a45188e618722a0617ef6c7832e7473afc4d04cb1a4e3fbea339caaf"),
    "analyze motzkin --flats 3":
        (0, "62755014bafeea3227fc98cb3f78428289861cdb7b3328ae49abe8a684c7390e"),
    "analyze random:4,9,1,0 --flats 2":
        (0, "0d29457881817943ea156f8b3125f5996efde122cbd98afdc7975f718c7133a5"),
    "analyze random:4,9,1,0 --flats 3":
        (0, "b0fe4324d7985555c8519c9b4a85cc9e28ac40b74bdcb99e54df387c1bda14f9"),
    "analyze random:4,9,3,0 --flats 2":
        (0, "3271f73499e8703a6e896d5b9282c46f999767ec68913d0ddaff622803268c24"),
    "analyze random:4,9,3,0 --flats 3":
        (0, "0f8e797658ecd3aa0c9f72630f813e986f49ebd7a8ce898b36b327671dc5b97d"),
    "analyze random:4,9,4,0 --flats 2":
        (0, "8fd214df3029f502c820527f10b9e0cd096eb8c17d666520d89677672e5cbea3"),
    "analyze random:4,9,4,0 --flats 3":
        (0, "cb3d3b0ba205433ac04a459ad7543b813302f7c3e077d73c0ebfa3063e6b6ecd"),
    "find-elementary ag23_power:2 --k 3":
        (1, "04c98ee6b146a63c2a407c81b7f8b76e38806c4024b79e622327fe902ba2b4fe"),
    "find-elementary ag23_power:3 --k 3":
        (0, "ba71dff853dfa1282d6566b193dcdee283cf3f85076e74d5b8ac6850ad0632f3"),
    "find-elementary ag23_power:3 --k 4":
        (1, "f2263fc7294747c816b7b81bb706e21b031d78ccc588c4eb6e80871aec49a481"),
    "find-ordinary ag23_power:2 --k 2":
        (0, "7c0ea0b380d298f3508c06aa2784651ac037564ee50f59fcb5c7dd72542efe93"),
    "find-ordinary ag23_power:2 --k 3":
        (0, "d6b0fc9f9ce705280fcfddf783af2f3b11ce0ba91450ecfb22bb4efdaeebde3d"),
    "find-ordinary motzkin --k 3":
        (0, "1ffbd292467c4251223bf9942309d83ae0d3aff36a69aed95850055ce641a383"),
    "find-ordinary random:12,16,3,5 --k 4 --method constructive --trace":
        (0, "a091fbe376a335ff95655ccf3abf0091d6d49d4f2dffffa7d7d1af2482c70aea"),
    "find-ordinary random:8,13,1,42 --k 3 --method constructive --trace":
        (0, "3ed455cdae4e073ef24a72192d5a6ecbf1fa3ec8a133898cb03b8c9e466f5dbf"),
    "find-ordinary uniform_power:2,3,6 --k 4 --method constructive --trace":
        (0, "3af630d722be9b462df4af69c5ad6022e00a8d80e2162010949973c29947ddb5"),
    "search --conjecture 1 --k 3 --trials 5 --seed 0":
        (0, "e03045a317c689c9fe3a1969e2835bd76b032b30a8f272b154180cef57ea2788"),
    "search --conjecture 1 --k 4 --trials 5 --seed 0":
        (0, "09506bcd21680b069a268dc449696c5fb5ecf4c1fcbc95aa79c48ddd3e1d5c46"),
    "search --conjecture 2 --k 2 --trials 25 --seed 0":
        (0, "91b6f97c489326dfd46447b5c5f0e605453a1ab434baa5fd3745ad43e636e249"),
    "search --conjecture 2 --k 3 --trials 10 --seed 0 --conductor 3":
        (0, "bdbaab708bbf734d93cb4183bd6b64f86d373aa36eca5b3ba21007e8e1cc62d8"),
    "verify --suite corollary --k 2 --trials 5 --seed 0":
        (0, "c7b9d39c0cc5af0f13ea5544cb90d5cc7764b194959fd3f2cc77dba0c25f2295"),
    "verify --suite kelly --trials 10 --seed 0 --conductor 3":
        (0, "cd324f2bd2d960188f4f973d249d4d59974b98b708d2cfc810de2a4cbf0b4b88"),
    "verify --suite kelly --trials 10 --seed 0 --conductor 4":
        (0, "08a3b74b30701a719d1b45137f4a103a6f7150f07822a941f7271967b98018b1"),
    "verify --suite main-theorem --k 3 --trials 5 --seed 0":
        (0, "b30414cc059d530cee834c4e8ef60f14686518e691bdd531bf79004f3bdf7b0a"),
    "verify --suite main-theorem --k 2 --trials 5 --seed 0 --conductor 3":
        (0, "688ace7a8decacc16994216a594312b2400029298ebee124fb7efb3282a1a6d3"),
    "verify --suite main-theorem --k 4 --trials 3 --seed 0 --conductor 4":
        (0, "78b04c84056340a7bc41d80c3123d33a59a1b63cc55c6d7b3ea15c1fb1a2728d"),
    "verify --suite main-theorem --k 5 --trials 3 --seed 0":
        (0, "50344aaac5bdfbfca16209da8d5c6bbb074a618a4112c5adda77e2c51987390f"),
    "verify --suite main-theorem --k 8 --trials 1 --seed 0":
        (0, "15ec9bfc7067d2e4d080064b756eeec886e5450d9ebb0dd8f222745fbf10bedb"),
}


def _without_stats(doc):
    if isinstance(doc, dict):
        return {k: _without_stats(v) for k, v in doc.items() if k != "stats"}
    if isinstance(doc, list):
        return [_without_stats(v) for v in doc]
    return doc


def golden_digest(argv, capsys):
    """Exit code and sha256 of stdout with every `stats` object removed."""
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    text = json.dumps(_without_stats(json.loads(out))) + "\n"
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_json_output_is_pinned(command, capsys):
    assert golden_digest(command.split(), capsys) == GOLDEN[command]


# catalog reference -> sha256 of write_matrix(build_ref(ref))
GOLDEN_EXPORTS = {
    "ag23":
        "6e97ea20b5cf0e7aca1ec42c3407c50715f43bc57fc731ab6f54e67439e3b739",
    "motzkin":
        "67c8b431fc925050b9c1aea6d7cbed619326e9c2b15600d655cfa15f22d81b96",
    "uniform:3,5":
        "4f92c5ca44f7325b00416140db3e22ab7b23945bff4e2788cc1d4efe4bf5f70d",
    "ag23_power:2":
        "82342102e6ea9d8ef194d833334de113330f978295272f2e541d181d331a4f6e",
    "uniform_power:2,3,3":
        "00d9d0e4ef53432e18d689b354ba82ba5cec3fa118f8957fc917230b156deb5b",
    "random:4,9,1,0":
        "c01fc3d0c392a19acbb758fa5e1cbdfa563112cba73a7086285a84c288d534fa",
    "random:4,9,3,0":
        "f77913c0fcd188cbaff7aacbcae1e5e34413590b77e5bac11085c410d4b1abf8",
    "random:4,9,4,0":
        "4196a792d11de8b725e7d5d8801bedf7e1c191beffcb73803c847201e6c21f66",
}


@pytest.mark.parametrize("ref", list(GOLDEN_EXPORTS))
def test_export_text_is_pinned(ref):
    text = write_matrix(build_ref(ref))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_EXPORTS[ref]
