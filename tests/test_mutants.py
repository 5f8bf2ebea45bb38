from __future__ import annotations

import re

from mutants import MUTANTS, ROOT


def test_every_mutant_anchor_occurs_once_and_its_tests_exist():
    # a refactor that moves an anchor or renames a killing test must carry its mutant along
    stale = []
    for mutant in MUTANTS:
        if (ROOT / mutant.path).read_text().count(mutant.old) != 1:
            stale.append(f"{mutant.name}: anchor in {mutant.path}")
        if not mutant.tests:
            stale.append(f"{mutant.name}: no killing test")
        for test in mutant.tests:
            path, name = test.split("::")
            source = (ROOT / path).read_text()
            if not re.search(rf"^def {re.escape(name)}\(", source, re.M):
                stale.append(f"{mutant.name}: {test}")
    assert not stale
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
