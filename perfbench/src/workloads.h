// The benchmark's four workloads (see perfbench/README.md for why each
// exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "trace.h"

namespace perfbench {

// One closed-loop workload: a single client issues op i, waits for its
// result, then issues op i + 1.  The program sees only inputs generated
// from the seed.
class Workload {
 public:
  virtual ~Workload() = default;
  // Untimed: generates inputs (and any reference oracle) from the seed.
  virtual void prepare(std::uint64_t seed) = 0;
  // Timed as setup_s: program-side set-up, up to and including the
  // first op (which is not part of the loop).
  virtual void setup() = 0;
  // Untimed: readies op i's input before its clock starts.
  virtual void stage(std::size_t /*i*/) {}
  // Timed: op i.  In traced runs `t` / `s` are non-null and spans wrap
  // the calls into each layer.
  virtual void op(std::size_t i, Trace* t, Samples* s) = 0;
  // Untimed: keeps what the after-loop check needs from op i.
  virtual void record(std::size_t i) = 0;
  // Untimed, traced runs only: per-layer work paired with op i.
  virtual void after_traced_op(std::size_t /*i*/, Trace& /*t*/,
                               Samples& /*s*/) {}
  // Untimed, end of a traced run: layer counters read once.
  virtual void final_samples(Samples& /*s*/) {}
  // Untimed, after the loop: re-runs references and checks ops
  // [0, ops); returns how many failed.
  virtual std::size_t check(std::size_t ops) = 0;
  virtual void teardown() {}
  // Thread counts the program was given, as a JSON object.
  virtual std::string threads_json() const = 0;
};

// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
