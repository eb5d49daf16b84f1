"""``ScenarioConfig.design``: each layer is called through its module, so a wrapped one runs."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import roa as roa_mod
from . import simulate as sim_mod
from . import steady_state as ss_mod
from . import synthesis
from .plant import msd_plant

__all__ = ["Design"]


class Design:
    """One configuration's design, read by every stage: gains, certificate, plant
    and x_d at once; the MFC, SL and SLHG equilibria and certified sets on first use."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.gains = synthesis.design_gains(cfg.poles, cfg.epsilon)
        self.cert = synthesis.certify(self.gains, cfg.vartheta)
        self.plant = msd_plant(cfg.plant, cfg.domain)
        self.x_d = np.array([cfg.y_d, 0.0])

    @cached_property
    def mfc(self) -> ss_mod.EquilibriumSet:
        return ss_mod.mfc_equilibria(self.cfg.plant, self.gains, self.cfg.y_d)

    @cached_property
    def sl(self) -> ss_mod.EquilibriumSet:
        return ss_mod.single_loop_equilibria(self.cfg.plant, self.gains, self.cfg.y_d,
                                             high_gain=False)

    @cached_property
    def slhg(self) -> ss_mod.EquilibriumSet:
        return ss_mod.single_loop_equilibria(self.cfg.plant, self.gains, self.cfg.y_d,
                                             high_gain=True)

    @cached_property
    def estimates(self) -> dict:
        """The MFC1, MFC2, SL and SLHG sets, each on its loop's ``rest_state``, the one
        ``simulate.steady_state_of`` gives that loop."""
        cfg, cert, x_d = self.cfg, self.cert, self.x_d
        x_s_mfc = self.mfc.rest_state
        return {
            "MFC1": roa_mod.estimate_mfc1(cfg.plant, cert, x_s_mfc, x_d),
            "MFC2": roa_mod.estimate_mfc2(cfg.plant, cert, x_s_mfc, x_d, cfg.x0_star),
            "SL": roa_mod.estimate_sl(cfg.plant, cert, self.sl.rest_state, x_d),
            "SLHG": roa_mod.estimate_slhg(cfg.plant, cert, self.slhg.rest_state, x_d),
        }

    def controller(self, kind: str) -> sim_mod.ControllerSpec:
        x0_star = self.cfg.x0_star if kind == "MFC" else None
        return sim_mod.ControllerSpec(kind, self.gains, sim_mod.SetPoint(self.cfg.y_d), x0_star)
