// Host-speed reference for the benchmark's timing metrics.
//
// The development host drifts between speed states that hold for one to
// tens of seconds and differ by up to 1.6x on msim's code (README.md,
// "Noise").  An ALU-bound loop does not see the drift; code that looks
// like a deck job does.  The reference call is therefore a fixed mini
// deck job owned by the benchmark -- tokenise 200 element cards, intern
// node names in a hash map, parse values with strtod, stamp and eliminate
// a dense 40x40 matrix -- whose time tracks the states (correlation 0.96
// with a cli-cold-ac op over 250 ms blocks).  No msim code runs in it, so
// a change to the program never moves it.
#pragma once

namespace perfbench {

// Reference time, one call after each op, in the development host's fast
// state [us] (the slow state reads 80-100): a timing scaled by
// kRefNominalUs / (measured reference time) reads as it would on that
// host in that state.
inline constexpr double kRefNominalUs = 54.0;

// Median of `calls` reference calls [us].
double host_ref_us(int calls);

// Pins the calling thread, and every thread it starts later, to the CPU
// it is running on, so the reference measures the CPU the program's
// threads run on.  Returns that CPU, or -1 when pinning failed.
int pin_to_current_cpu();

}  // namespace perfbench
