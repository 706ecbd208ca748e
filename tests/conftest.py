import pytest

from tdxmodel.catalog import FieldCatalog
from tdxmodel.states import PermissionMatrix
from tdxmodel.status import TDX_SUCCESS


@pytest.fixture(scope="session")
def catalog():
    return FieldCatalog.load()


@pytest.fixture(scope="session")
def matrix():
    return PermissionMatrix.load()


class DictSink:
    """Plain metadata sink for codec tests: records writes and skips."""

    def __init__(self):
        self.values = {}
        self.skips = []

    def write_field(self, entry, field_index, values, combined_mask):
        self.values[(entry.name, field_index)] = list(values)
        return TDX_SUCCESS

    def record_skip(self, entry, field_index):
        self.skips.append((entry.name, field_index))


@pytest.fixture
def sink():
    return DictSink()
