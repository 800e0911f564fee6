"""LayeredBlocks: compacting the overlay stack changes neither the map
a snapshot reads nor the order it iterates (and so saves) in."""

import random

from repro.storage.blockmap import ABSENT, MAX_LAYERS, LayeredBlocks


def random_layers(rng):
    """Overlays of writes and frees over a base, newest first."""
    base = {b: b"base" for b in rng.sample(range(400), rng.randrange(1, 300))}
    frees = rng.choice((0.0, 0.4))
    overlays = []
    for n in range(MAX_LAYERS + 1):
        overlay = {}
        for _ in range(rng.randrange(1, 12)):
            block = rng.randrange(400)
            overlay[block] = ABSENT if rng.random() < frees else bytes([n])
        overlays.append(overlay)
    return [*reversed(overlays), base]


def test_compaction_keeps_the_map_and_its_order():
    rng = random.Random(1994)
    shapes = set()
    for _ in range(300):
        layers = random_layers(rng)
        compacted = LayeredBlocks._compact(layers)
        shapes.add(len(compacted))
        want, got = LayeredBlocks(layers), LayeredBlocks(compacted)
        assert list(got.items()) == list(want.items())
        for block in range(400):
            assert got.get(block) == want.get(block)
    assert shapes == {1, 2, 3}  # folded; merged over base; and masked

