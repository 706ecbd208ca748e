"""Desk-scale model of the TD lifecycle and live-migration metadata protocol.

Every logic-level finding in the covered review is reproducible as a
deterministic scenario against either the vulnerable (pre-fix) or fixed
(post-remediation) behavior of the model.
"""

from .catalog import FieldCatalog
from .engine import EngineMode, TdxModule
from .md_codec import MdFieldId, ParseArena, decode_field_id, encode_field_id
from .states import Leaf, OpState, PermissionMatrix
from .td import TdComplex, TdParams

__all__ = [
    "EngineMode",
    "FieldCatalog",
    "Leaf",
    "MdFieldId",
    "OpState",
    "ParseArena",
    "PermissionMatrix",
    "TdComplex",
    "TdParams",
    "TdxModule",
    "decode_field_id",
    "encode_field_id",
]

__version__ = "0.1.0"
