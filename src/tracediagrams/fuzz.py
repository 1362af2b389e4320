"""Seeded generator of random valid layered diagrams.

Used by the cross-evaluator equality campaign: diagrams are built
valid-by-construction (polarity chaining respected at every step), with
vertices given randomly shuffled ciliations so both evaluators' ordering
conventions are exercised, not just the canonical ones.
"""

from __future__ import annotations

import random

from .diagrams import (COVECTOR, SINK, SOURCE, VECTOR, Cap, Cross, Cup, Id,
                       LayeredDiagram, Mat, NVertex, Perm)
from .identities import random_matrix
from .linalg import Matrix


MAX_LAYERS = 6
MAX_VERTICES = 2
NAMES = ("A", "B")


def random_layered_diagram(n: int, rng: random.Random,
                           max_width: int = 5) -> LayeredDiagram:
    inputs = tuple(rng.choice((VECTOR, COVECTOR))
                   for _ in range(rng.randint(0, min(3, max_width))))
    profile = list(inputs)
    layers = []
    vertices = 0

    for _ in range(rng.randint(1, MAX_LAYERS)):
        pieces = []
        new_profile = []
        pos = 0
        while pos < len(profile):
            width = len(new_profile) + (len(profile) - pos)
            options = [("id", 3), ("mat", 2)]
            if width + 2 <= max_width:
                options.append(("cup", 1))
            if pos + 1 < len(profile):
                options.append(("cross", 1))
                if tuple(profile[pos:pos + 2]) == (VECTOR, COVECTOR):
                    options.append(("cap", 3))
            tail = len(profile) - pos
            if tail >= 2:
                options.append(("perm", 1))
            if vertices < MAX_VERTICES:
                for direction, want in ((SINK, VECTOR), (SOURCE, COVECTOR)):
                    j = 0
                    while j < min(n, tail) and profile[pos + j] == want:
                        j += 1
                    for j_use in range(j, -1, -1):
                        if width - j_use + (n - j_use) <= max_width:
                            options.append((("vertex", direction, j_use), 2))
                            break
            kinds = [o for o, _ in options]
            weights = [w for _, w in options]
            choice = rng.choices(kinds, weights)[0]

            if choice == "id":
                pieces.append(Id())
                new_profile.append(profile[pos])
                pos += 1
            elif choice == "mat":
                pieces.append(Mat(rng.choice(NAMES),
                                  against_orientation=rng.random() < 0.25))
                new_profile.append(profile[pos])
                pos += 1
            elif choice == "cup":
                pieces.append(Cup())
                new_profile.extend((COVECTOR, VECTOR))
            elif choice == "cross":
                pieces.append(Cross())
                new_profile.extend((profile[pos + 1], profile[pos]))
                pos += 2
            elif choice == "cap":
                pieces.append(Cap())
                pos += 2
            elif choice == "perm":
                m = rng.randint(2, min(4, len(profile) - pos))
                images = list(range(1, m + 1))
                rng.shuffle(images)
                pieces.append(Perm(tuple(images)))
                segment = profile[pos:pos + m]
                rearranged = [None] * m
                for s, target in enumerate(images):
                    rearranged[target - 1] = segment[s]
                new_profile.extend(rearranged)
                pos += m
            else:
                _, direction, j_use = choice
                cil = list(range(1, n + 1))
                if rng.random() < 0.5:
                    rng.shuffle(cil)
                pieces.append(NVertex(direction, j_use, tuple(cil)))
                produced = COVECTOR if direction == SINK else VECTOR
                new_profile.extend([produced] * (n - j_use))
                pos += j_use
                vertices += 1

        if not pieces:
            # empty profile: seed new wires or stop
            width = len(new_profile)
            starters = []
            if width + 2 <= max_width:
                starters.append("cup")
            if vertices < MAX_VERTICES and width + n <= max_width:
                starters.append("vertex")
            if not starters or rng.random() < 0.4:
                break
            choice = rng.choice(starters)
            if choice == "cup":
                pieces.append(Cup())
                new_profile.extend((COVECTOR, VECTOR))
            else:
                direction = rng.choice((SINK, SOURCE))
                cil = list(range(1, n + 1))
                if rng.random() < 0.5:
                    rng.shuffle(cil)
                pieces.append(NVertex(direction, 0, tuple(cil)))
                produced = COVECTOR if direction == SINK else VECTOR
                new_profile.extend([produced] * n)
                vertices += 1

        layers.append(tuple(pieces))
        profile = new_profile

    if not layers:
        layers.append(tuple(Id() for _ in profile))
    return LayeredDiagram(n, inputs, layers)


def random_bindings(diagram: LayeredDiagram,
                    rng: random.Random) -> dict[str, Matrix]:
    return {name: random_matrix(diagram.n, rng.getrandbits(48))
            for name in sorted(diagram.matrix_names())}
