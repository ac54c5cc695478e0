"""UAV swarm simulation, graph Koopman trajectory forecasting, and covert
transmit-power evaluation for terrestrial ad-hoc networks."""

__version__ = "0.1.0"
