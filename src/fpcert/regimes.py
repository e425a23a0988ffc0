"""The decay regimes a certificate can check, with the witness names each takes.

WITNESSES maps each regime name to the names `majorant.cert_<regime>` takes
after (p, N), in its argument order.  It lives apart from the certificates,
so that a problem file's `certificates` block is checked without importing
`majorant`.
"""
from typing import Dict, Tuple

WITNESSES: Dict[str, Tuple[str, ...]] = {
    "bounded": (),
    "uniform_max": (),
    "sandwich": ("C1", "C2"),
    "geometric": ("chi", "mu", "lambda0_tilde", "C_mu"),
    "quadratic": ("chi", "mu"),
}
