import efxlab


def test_every_exported_name_resolves_once():
    assert len(set(efxlab.__all__)) == len(efxlab.__all__)
    for name in efxlab.__all__:
        assert hasattr(efxlab, name), name
