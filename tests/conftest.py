import hashlib
import json
import sys

import pytest

from weilsf import WeilError, report
from weilsf.cli import enumerate_weil

# paper-cited isogeny classes and their groups; used by several suites
PAPER_EXAMPLES = {
    "2.5.a_ab": "U(1) x C_2",
    "2.25.ac_bz": "U(1)",
    "2.2.ab_b": "U(1)^2",
    "2.2.a_ad": "U(1) x C_2",
    "2.2.ab_ab": "U(1) x C_3",
    "2.3.ac_c": "U(1) x C_4",
    "2.2.ad_f": "U(1) x C_6",
    "2.2.ac_f": "U(1)",
    "2.2.a_d": "U(1) x C_2",
    "2.7.af_s": "U(1) x C_3",
    "2.5.ag_s": "U(1) x C_4",
    "2.7.aj_bi": "U(1) x C_6",
    "2.2.ab_a": "U(1)^2",
    "3.2.ad_f_ah": "U(1)^3",
    "3.2.a_a_ad": "U(1) x C_3",
    "3.2.ae_j_ap": "U(1) x C_7",
    "3.2.a_a_ac": "U(1) x C_3",
    "3.8.ai_bk_aeq": "U(1) x C_7",
    "3.8.ag_bk_aea": "U(1)",
    "3.2.ad_j_an": "U(1)",
    "3.2.ab_f_ad": "U(1) x C_2",
    "3.2.a_a_af": "U(1) x C_3",
    "3.5.ak_bv_afc": "U(1) x C_4",
    "3.7.ao_di_alk": "U(1) x C_6",
    "3.3.af_r_abi": "U(1)^2",
    "3.2.ab_b_b": "U(1)^2 x C_2",
    "3.3.ad_d_ac": "U(1)^2 x C_3",
    "3.3.af_p_abg": "U(1)^2 x C_4",
    "3.2.ae_k_ar": "U(1)^2 x C_6",
    "3.4.ae_n_abc": "U(1)^2",
    "3.4.ad_ad_w": "U(1)^2 x C_2",
    "3.4.ad_d_c": "U(1)^2 x C_3",
    "3.4.ac_ad_q": "U(1)^2 x C_4",
    "3.4.ad_j_au": "U(1)^2 x C_6",
    "3.2.ac_b_a": "U(1)^2 x C_4",
    "3.2.ac_d_ag": "U(1)^2 x C_8",
    "3.3.ae_k_av": "U(1)^2 x C_12",
}

CORPUS_RANGES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]


def field_digest(g, q):
    """(inputs, SHA-256 over one line per input of enumerate_weil(g, q), in
    order: its report() JSON, or its error class and message)."""
    digest, count = hashlib.sha256(), 0
    for P in enumerate_weil(g, q):
        try:
            text = json.dumps(report(P), sort_keys=True, separators=(",", ":"))
        except WeilError as exc:
            text = "%s: %s" % (type(exc).__name__, exc)
        digest.update(text.encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


@pytest.fixture(scope="session")
def corpus():
    """The enumerated acceptance corpora, built once per session."""
    return {(g, q): list(enumerate_weil(g, q)) for g, q in CORPUS_RANGES}


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) wraps the function `name` at every binding in the
    loaded weilsf modules and returns the list its calls are appended to."""
    def wrap(name):
        calls = []
        for key, mod in list(sys.modules.items()):
            if key.startswith("weilsf.") and name in vars(mod):
                real = vars(mod)[name]

                def counted(*args, real=real, **kwargs):
                    calls.append(args)
                    return real(*args, **kwargs)
                monkeypatch.setattr(mod, name, counted)
        return calls
    return wrap
