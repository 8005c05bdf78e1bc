"""The packaged examples as the tests use them: each definition is loaded
from its shipped .qg file, the only copy of it, and is a fresh object on
every call, so a test may edit it."""

from hopf_forge.definition import load_definition
from hopf_forge.fixtures import packaged_fixture_path


def packaged(name):
    return load_definition(packaged_fixture_path(name))
