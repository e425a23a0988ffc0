"""The regime table a certificates block is checked against matches the certificates."""
import inspect

from fpcert import majorant
from fpcert.regimes import WITNESSES


def test_table_names_every_regime_in_majorants_order():
    assert list(WITNESSES) == list(majorant.REGIMES)


def test_witnesses_are_each_certificates_parameters_after_p_and_n():
    for regime, names in WITNESSES.items():
        params = list(inspect.signature(getattr(majorant, "cert_" + regime)).parameters)
        assert params[:2] == ["p", "N"], regime
        assert names == tuple(params[2:]), regime
        assert majorant.REGIMES[regime].witnesses is names, regime
