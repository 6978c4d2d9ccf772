"""Hiding type information (Section 5.2, Figure 21).

"Large projects often have multiple levels of clients. ... information
about ``RecEnv``'s exports can be restricted via explicit signatures
and an extended subtype relation.  The extended relation allows a
subtype signature to contain an extra exported type variable (e.g.,
``env``) in place of an abbreviation in the supertype signature.  As a
result, the information formerly exposed by the abbreviation becomes
hidden, replaced by an opaque type."

Reading the figure operationally: the *actual* unit's signature knows
``env = name -> value`` (a translucent abbreviation); untrusted clients
see an ascribed signature where ``env`` is an opaque exported type.
:func:`subtype_with_hiding` validates such an ascription by
substituting the abbreviation for the opaque variable in the ascribed
signature and then applying ordinary signature subtyping;
:func:`hide_types` constructs the opaque signature from a translucent
one.
"""

from __future__ import annotations

from repro.lang.errors import TypeCheckError
from repro.types.kinds import OMEGA
from repro.types.subtype import sig_subtype
from repro.types.types import Sig, Type, subst_type
from repro.extensions.translucent import TranslucentSig
from repro.unite.expand import expand_type


def hide_types(translucent: TranslucentSig,
               names: tuple[str, ...]) -> Sig:
    """Build the opaque signature that hides the given abbreviations.

    Each ``name`` must be one of the translucent signature's
    abbreviations.  Occurrences of the abbreviated type in the
    signature's type expressions are *not* expanded; the name itself
    becomes an exported opaque type variable — the Figure 21 ascription
    for untrusted clients.
    """
    abbrevs = translucent.equations()
    for name in names:
        if name not in abbrevs:
            raise TypeCheckError(
                f"hide_types: '{name}' is not an abbreviation of the "
                f"signature")
    # Expand abbreviations we are NOT hiding, so only the hidden names
    # remain as type variables.
    keep = {n: rhs for n, rhs in abbrevs.items() if n not in names}
    sig = translucent.sig
    new_texports = sig.texports + tuple((n, OMEGA) for n in names)
    return Sig(
        sig.timports,
        tuple((n, expand_type(t, keep)) for n, t in sig.vimports),
        new_texports,
        tuple((n, expand_type(t, keep)) for n, t in sig.vexports),
        expand_type(sig.init, keep),
        sig.depends,
    )


def subtype_with_hiding(specific: TranslucentSig, general: Sig) -> bool:
    """The extended subtype relation of Section 5.2.

    ``general`` may export opaque type variables that ``specific``
    implements as abbreviations.  Those variables are replaced by the
    abbreviations' definitions, removed from the exports, and ordinary
    signature subtyping decides the rest.
    """
    abbrevs = specific.equations()
    hidden = [name for name, _ in general.texports if name in abbrevs]
    mapping: dict[str, Type] = {
        name: expand_type(abbrevs[name], abbrevs) for name in hidden}
    revealed = Sig(
        general.timports,
        tuple((n, subst_type(t, mapping)) for n, t in general.vimports),
        tuple((n, k) for n, k in general.texports if n not in hidden),
        tuple((n, subst_type(t, mapping)) for n, t in general.vexports),
        subst_type(general.init, mapping),
        general.depends,
    )
    # The hidden names must not survive anywhere (e.g. under a nested
    # sig that rebinds them we leave them alone, which is correct).
    return sig_subtype(specific.expand(), revealed)
