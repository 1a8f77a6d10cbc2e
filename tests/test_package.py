import collections

import hyperlab


def test_exports_resolve_once():
    repeated = [name for name, n in collections.Counter(hyperlab.__all__).items()
                if n > 1]
    assert repeated == []
    assert [name for name in hyperlab.__all__
            if not hasattr(hyperlab, name)] == []
