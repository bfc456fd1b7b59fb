#include "sim/noise.hpp"

#include "util/errors.hpp"

namespace quml::sim {

void NoiseModel::validate() const {
  for (const double p : {depolarizing_1q, depolarizing_2q, readout_flip})
    if (p < 0.0 || p > 1.0) throw ValidationError("noise probability outside [0, 1]");
}

}  // namespace quml::sim
