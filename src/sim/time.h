// Simulated time. Continuous (fluid-flow) time as double seconds; ties in the
// event queue are broken by insertion sequence, so identical runs replay in
// identical order.
#pragma once

#include "util/units.h"

namespace ds::sim {

using SimTime = ds::Seconds;

// Tolerance for "this fluid volume / interval has been fully consumed".
// Volumes are >= kilobytes and times >= milliseconds; 1e-6 is far below
// anything observable but far above accumulated double error.
inline constexpr double kFluidEps = 1e-6;

// Completion test for fluid work being serviced at `rate`. The byte-absolute
// epsilon alone is not enough: accumulated float error can leave a residue
// slightly above kFluidEps whose drain time at a high rate is *below double
// time resolution*, freezing the event loop at a fixed timestamp (a Zeno
// loop). Anything that would drain within a nanosecond of simulated time is
// therefore also complete.
inline constexpr double kTimeEps = 1e-9;

inline bool fluid_done(double remaining, double rate) {
  return remaining <= kFluidEps || remaining <= rate * kTimeEps;
}

}  // namespace ds::sim
