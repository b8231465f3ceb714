"""XMark substrate: schema, deterministic generator, adapted queries."""

from repro.xmark.generator import XMarkConfig, generate_xmark, xmark_scale_for_bytes
from repro.xmark.queries import TABLE1_QUERIES, XMARK_QUERIES, XMarkQuery
from repro.xmark.schema import ELEMENT_CHILDREN, REGIONS, SCALE_BASE, validate_order

__all__ = [
    "generate_xmark",
    "xmark_scale_for_bytes",
    "XMarkConfig",
    "XMARK_QUERIES",
    "TABLE1_QUERIES",
    "XMarkQuery",
    "ELEMENT_CHILDREN",
    "REGIONS",
    "SCALE_BASE",
    "validate_order",
]
