"""Cold-start probe for ``setup_s``: run by a fresh interpreter, it imports
smcfilter, builds the scenario from a config file and draws the prior, then
prints ``ready`` and exits.

    python3 bench/setup_probe.py <config.json>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from smcfilter import cli, filter as sir  # noqa: E402
from smcfilter.core import RngStream  # noqa: E402

cfg = cli.load_config(sys.argv[1])
scenario = cli.build_scenario(cfg)
sir.init(
    scenario.model,
    scenario.prior,
    scenario.n_particles,
    RngStream(cfg.seed),
    policy=scenario.policy,
    estimator=scenario.estimator,
)
print("ready", flush=True)
