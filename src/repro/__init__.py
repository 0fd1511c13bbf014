"""STREAMLINE reproduction: streamlined analysis of data at rest and data
in motion.

A pure-Python reproduction of the STREAMLINE platform (EDBT 2017):

* :mod:`repro.api` -- the uniform programming model (DataStream/DataSet)
  on a single pipelined engine;
* :mod:`repro.runtime`, :mod:`repro.plan`, :mod:`repro.state`,
  :mod:`repro.time` -- the Flink-like execution substrate;
* :mod:`repro.windowing` -- window assigners, triggers, aggregates;
* :mod:`repro.cutty` -- aggregate sharing for user-defined windows
  (Carbone et al., CIKM 2016) plus every baseline it was evaluated
  against;
* :mod:`repro.i2` -- interactive real-time visualization with
  data-rate-independent, provably minimal time-series reduction
  (Traub et al., EDBT 2017);
* :mod:`repro.ml` -- streaming machine learning for the four STREAMLINE
  applications (customer retention, recommendations, targeted
  advertisement, multilingual Web processing);
* :mod:`repro.datagen`, :mod:`repro.connectors` -- seeded workload
  generators and sources/sinks.
"""

from repro.api import Environment

__version__ = "1.0.0"

__all__ = ["Environment", "__version__"]
