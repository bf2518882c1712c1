"""The synthetic world: pinned bytes and size checks.

``PINNED`` holds, per (n_objects, n_verbs, n_pairs, rng_seed), the sha256 of
each file ``generate_world`` writes and of ``World.objects``, ``World.verbs``
and ``World.scores`` (in the text forms ``world_texts`` gives). The benchmark,
the golden run and every test read these worlds, so they change only with a
change that means to alter them. Print fresh digests with:

    PYTHONPATH=src python tests/test_synthetic.py
"""
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from physrel.synthetic import World, generate_world

PINNED = {
    (30, 12, 140, 0): {
        "cooccurrence.tsv": "247f469c58fba5de31071fa17ed3f2fe28626b56c64cc0e17c9b16b7512147d1",
        "embeddings_objects.txt": "1a10c552d323b4d9f0e72de58d5dc329b95df01b54f55950a070a99f9eeb8679",
        "embeddings_verbs.txt": "b610d2038349fb795eda596aafc17cc359f896e2e15639d1edde6d5361e046bc",
        "frames_20.tsv": "2c9fc3fde97d589c35c2b2fc6911c11e984c1aa5dcf8f099eda0ceea39050561",
        "frames_5.tsv": "f731ba72a8904cfea64ab48933a7e7edc4ee75e44a034c2652a6f9775657c0ad",
        "objects": "d5c2320f15ee18efe9d7d6453400f9b640d6152e21181cd99f3e315abcdb7953",
        "pairs_20.tsv": "b4bb345bc5903e3517e2725ec0d49bbfe270a4443b94027e14733b16878bf202",
        "pairs_5.tsv": "a65e2410d84a0bad90da7c6f02021db7c443f323c5dfd713bb14ca72b33648dd",
        "scores": "bbbce5b151dd9fc0c7ec74524dd76cf109f040e4d5b1144dfda7566146dda7b5",
        "verbs": "9b26671ef3903aafd83e1d942e2a4b9b69344117d0c302f11669451a8624c8df",
    },
    (30, 12, 140, 7): {
        "cooccurrence.tsv": "90b7e420a76723be5e701fe4b267555adaebf62827b4cb94f15cc6493c8f824f",
        "embeddings_objects.txt": "21a7d697699cd1f4630f8e2554f6334b33b6ed9da0f89cbff279b5efab58c6a4",
        "embeddings_verbs.txt": "a45b6d266aaf1c77927afea586d1a89aa937620447033b11b707c4fbf475b6c7",
        "frames_20.tsv": "830725b17d8904b719b8f7e01697c5097d6a12f4de8b708d8811598ed585ffe9",
        "frames_5.tsv": "9c1a369646248ec6f59ad6abf989712d3908bbe6328e4200f71739cdca282cee",
        "objects": "d5c2320f15ee18efe9d7d6453400f9b640d6152e21181cd99f3e315abcdb7953",
        "pairs_20.tsv": "4551118a07bd1e28e97d008f11df10cbe4c9c351f422c52254cc111aed28b19f",
        "pairs_5.tsv": "cfd389d0a3190ce40ebfef93b401f210abe75d133496b2d60d67c9da7861e76a",
        "scores": "ddf87513ab6aef89adf84c095eaaa4c3418adbf33d9f2231a7fc47ded9590693",
        "verbs": "9b26671ef3903aafd83e1d942e2a4b9b69344117d0c302f11669451a8624c8df",
    },
    (60, 20, 900, 0): {
        "cooccurrence.tsv": "0733ff763d482a657347ead78d08bed2b325d0a8af0bbc1358fba9d3482e501c",
        "embeddings_objects.txt": "89c42441aca4e5251104b491b73728119fa9edfe6c0efdc46f8158b8522f91ef",
        "embeddings_verbs.txt": "0de768181811f4b5163ab976964caeeacfe2de44a2419204d941c2412303d35f",
        "frames_20.tsv": "1be4676be0c1eb1c749e3c79c0b22a66d32ab57bfe0e99124375f939c5fef223",
        "frames_5.tsv": "a11f445e18e7a29292eeed68d1e0696b4f9aeef939ecebf592cb94b75e47ca54",
        "objects": "9bb3302de94e3d034cf34cb0d0c3291b70d5b3cab01d2e5ef1f867eb617205ac",
        "pairs_20.tsv": "d33b5a9668aff0ec853605c96fc419f497c176b3b04549134ee6bfc4aa95469c",
        "pairs_5.tsv": "f3d35339e1623de61ed45fabf420e8b22957731cc88362515ec7950a748b18ee",
        "scores": "f7bfa484e7bfaa2ec9f331ee5af67c18e23306a41f673734feabce66ac202e86",
        "verbs": "8d4cf219eaba448552efb79545c82598ee39d81128de2660ebab31e0046ec043",
    },
    (60, 30, 600, 2): {
        "cooccurrence.tsv": "f61ec99ff010ac80ea33a543ed1f75ae9a61d7460b9c6cd06321080fda95dad1",
        "embeddings_objects.txt": "1f225f282c2835b70e3aadf6e391965df86aca12025cd64595b4d71af8a3e170",
        "embeddings_verbs.txt": "59cf487c701352d1af75ba66de9f621b0cd46a3c01efd76792fcad981680ecf4",
        "frames_20.tsv": "2c03f873eddb6f96139bc4110fb0fd286f33f3a963bdd988541eeceff8d2dc01",
        "frames_5.tsv": "646ade82f4274d472b42a8d8cad2702769d37a5bec78dbc52bb88ebe24c462c6",
        "objects": "9bb3302de94e3d034cf34cb0d0c3291b70d5b3cab01d2e5ef1f867eb617205ac",
        "pairs_20.tsv": "2cf2ad772692fe0450d9b999efc4bd3949d83e3e5eedc459d93508f3b42bfa59",
        "pairs_5.tsv": "cbb6ec706d7b14c1ac79fcd9f02add268006123dd40710f9112138ab5ce5627d",
        "scores": "c9c6232ae5b21f5c310062d9e2c175d983abd61625336c79b4e1f9004d4bd5d9",
        "verbs": "00f6b5988dea07d396b8b2b049f41d86bb96077e774bafbee892e7d5771f3ca0",
    },
    (200, 300, 3600, 0): {
        "cooccurrence.tsv": "ddab64046f2e18ca47fe1edc28362efd314b2803c6c0892dc5f33f20e85ddd55",
        "embeddings_objects.txt": "5b2297f30c04376acb4de4196f81607dc2639f556710e479ec350cd40efd6cd0",
        "embeddings_verbs.txt": "91f6d5090bd5336ba66657836510ca2840e325219fe649e5db5094d766ae0428",
        "frames_20.tsv": "08c843824ce78e5e6b09336ad879c354bd268b60653cb403d183905ccd1f8deb",
        "frames_5.tsv": "a41c4f9195a0a0898e1f279b90f9e60d5665f622fb553ad6ce21a56ebec3cc3c",
        "objects": "c8c6913f8b066c77aa1046e45666e153cd6d3bff9a55498b686349819552106a",
        "pairs_20.tsv": "ff784d8443527381712febea83603d43a9dd9f14cc3118883cb014a7d8a1e8ab",
        "pairs_5.tsv": "c6bd87abab344aebcf985053ba9b2c6e3fe7dd4720f654a192c73af80baf6f9c",
        "scores": "49fba9aa9d3b64880071f6f55cbac3fe1ebf96f034c1b5b4b71cb0fdec956726",
        "verbs": "2a735faa11b309b660aa1074995538200430588c4361a3a8e2c68a0866be1ec9",
    },
}


def world_texts(world: World) -> dict[str, str]:
    """``World.objects``, ``.verbs`` and ``.scores`` as text; a score is its ``repr``."""
    return {
        "objects": " ".join(world.objects),
        "verbs": " ".join(world.verbs),
        "scores": "\n".join(
            f"{attribute.value} {name} {score!r}"
            for attribute, by_name in world.scores.items()
            for name, score in by_name.items()
        ),
    }


def world_digests(world: World) -> dict[str, str]:
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in vars(world.paths).values()}
    digests.update({name: hashlib.sha256(text.encode()).hexdigest() for name, text in world_texts(world).items()})
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("key", list(PINNED), ids=[",".join(map(str, key)) for key in PINNED])
def test_world_bytes_are_pinned(tmp_path, key):
    n_objects, n_verbs, n_pairs, rng_seed = key
    world = generate_world(tmp_path, rng_seed, n_objects, n_verbs, n_pairs)
    assert world_digests(world) == PINNED[key]


@pytest.mark.parametrize("n_verbs", [1, 5])
def test_every_verb_gets_a_split_at_an_odd_verb_count(tmp_path, n_verbs):
    world = generate_world(tmp_path, n_objects=7, n_verbs=n_verbs, n_pairs=21)
    for path in (world.paths.frames_5, world.paths.frames_20):
        split_of = {}
        for row in path.read_text(encoding="utf-8").splitlines():
            verb, *_, split = row.split("\t")
            split_of.setdefault(verb, set()).add(split)
        assert sorted(split_of) == world.verbs
        assert all(len(splits) == 1 for splits in split_of.values())
        splits = [splits.pop() for splits in split_of.values()]
        assert splits.count("test") == n_verbs // 2 and "seed" in splits


@pytest.mark.parametrize(
    "sizes, name",
    [
        ({"n_verbs": 0}, "n_verbs"),
        ({"n_verbs": -2}, "n_verbs"),
        ({"n_pairs": -1}, "n_pairs"),
        ({"n_objects": 5, "n_pairs": 11}, "n_pairs"),
        ({"n_objects": -3, "n_pairs": 0}, "n_objects"),
    ],
)
def test_bad_sizes_are_rejected_before_any_file_is_written(tmp_path, sizes, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        generate_world(tmp_path / "world", **sizes)
    assert not (tmp_path / "world").exists()


@pytest.mark.parametrize("n_pairs", [0, 10])
def test_both_ends_of_the_pair_count_are_accepted(tmp_path, n_pairs):
    world = generate_world(tmp_path, n_objects=5, n_verbs=2, n_pairs=n_pairs)
    text = world.paths.pairs_5.read_text(encoding="utf-8")
    assert len({tuple(sorted(row.split("\t")[:2])) for row in text.splitlines() if row}) == n_pairs
    if not n_pairs:  # a file without rows is one newline
        assert text == world.paths.cooccurrence.read_text(encoding="utf-8") == "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        print(json.dumps({
            str(key): world_digests(generate_world(Path(directory) / str(i), key[3], *key[:3]))
            for i, key in enumerate(PINNED)
        }, indent=1))
