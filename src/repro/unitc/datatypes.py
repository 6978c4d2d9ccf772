"""Python-side helpers for two-variant constructed types.

The runtime representation is
:class:`repro.lang.values.VariantValue`; this module gives tests,
examples, and embedding code a convenient way to build and inspect
instances without going through the interpreter.
"""

from __future__ import annotations

from repro.lang.errors import VariantError
from repro.lang.values import VariantValue


def construct(type_name: str, variant: int, payload: object) -> VariantValue:
    """Build an instance of ``type_name``'s first (0) or second (1)
    variant."""
    if variant not in (0, 1):
        raise VariantError(
            f"constructor for '{type_name}': variant must be 0 or 1")
    return VariantValue(type_name, variant, payload)


def deconstruct(type_name: str, variant: int, value: object) -> object:
    """Extract the payload, enforcing the tag and variant.

    Applying a deconstructor to the wrong variant "signals a run-time
    error" (Section 4.2); that error is :class:`VariantError`.
    """
    if not isinstance(value, VariantValue) or value.type_name != type_name:
        raise VariantError(
            f"deconstructor for '{type_name}': not an instance of the type")
    if value.variant != variant:
        raise VariantError(
            f"deconstructor for '{type_name}': applied to the wrong variant")
    return value.payload
