"""How a term prints: the one rule behind every printed sum.

A printed sum is signed terms joined by " + " and " - ".  A term is a
coefficient times a body: a coefficient of 1 is left out, -1 prints as a
bare sign, and an empty body prints the coefficient alone.  Classes,
degrees, scalars and elements all print through these helpers.
"""


def power_product(powers) -> str:
    """name^exp factors joined by '*'; exponent 1 prints bare, 0 not at all."""
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in powers if exp)


def scaled(coeff: str, body: str, sep: str = "*") -> str:
    """The term coeff*body, with 1 and -1 elided and an empty body giving
    the coefficient alone."""
    if not body:
        return coeff
    if coeff == "1":
        return body
    if coeff == "-1":
        return f"-{body}"
    return f"{coeff}{sep}{body}"


def signed_sum(texts) -> str:
    """Terms joined by ' + ' and ' - ', the first keeping its sign; '0' for none."""
    out = ""
    for text in texts:
        if not out:
            out = text
        elif text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out or "0"
