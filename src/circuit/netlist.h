// Netlist: owns nodes and devices, assigns MNA unknown indices.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/device.h"
#include "circuit/node.h"
#include "core/faultpoint.h"

namespace msim::ckt {

// Cached outcome of the static pre-pass (lint + structural analysis)
// for one topology.  `fingerprint` hashes structure only -- device
// types, names, terminal nodes, branch counts -- never values, so a
// Monte-Carlo sample perturbing parameters keeps the nominal verdict.
struct StructuralVerdict {
  std::uint64_t fingerprint = 0;
  bool valid = false;  // a pre-pass ran and stored its outcome
  bool clean = false;  // the pass reported zero issues
};

class Netlist {
 public:
  Netlist();

  // Returns the id for a named node, creating it on first use.  The names
  // "0" and "gnd" always map to ground.
  NodeId node(std::string_view name);
  // Creates a fresh anonymous internal node (named "_n<k>").
  NodeId internal_node(std::string_view hint = "n");

  // Const lookup: the id of an existing node, or kInvalidNode when the
  // name was never used (no node is created).
  NodeId find_node(std::string_view name) const;
  const std::string& node_name(NodeId id) const;
  // Total node count including ground.
  int node_count() const { return static_cast<int>(names_.size()); }

  // Constructs a device in place and returns a non-owning pointer.
  template <typename D, typename... Args>
  D* add(Args&&... args) {
    auto dev = std::make_unique<D>(std::forward<Args>(args)...);
    D* raw = dev.get();
    index_[raw->name()] = devices_.size();
    devices_.push_back(std::move(dev));
    ++structure_rev_;
    return raw;
  }

  Device* find(std::string_view name) const;
  // Finds and downcasts; returns nullptr when absent or of another type.
  template <typename D>
  D* find_as(std::string_view name) const {
    return dynamic_cast<D*>(find(name));
  }

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  // Assigns branch-current unknowns after all node voltages; returns the
  // total number of MNA unknowns (node_count()-1 + total branches).
  int assign_unknowns();
  int unknown_count() const { return unknown_count_; }
  // True when assign_unknowns() ran for the netlist as it stands now:
  // stale branch bases would make stamped positions meaningless.
  bool unknowns_assigned() const { return assigned_rev_ == structure_rev_; }

  // The MNA unknown index of a node voltage (node must not be ground).
  static int node_unknown(NodeId n) { return n - 1; }

  // Monotonic structural revision: bumped on every topology mutation
  // (new node, new device).  Derived caches -- assign_unknowns, the
  // topology fingerprint, the solver cache's stamp-slot tables -- key
  // their validity on it, so editing a netlist after a cached run
  // forces a fresh pattern/slot build instead of replaying stale
  // indices.
  std::uint64_t structure_revision() const { return structure_rev_; }

  // Sparse-engine structural cache (see num::SolverCache): filled in by
  // the analysis layer so every system over this netlist shares one
  // pattern build and one symbolic factorization.  Mutable because it
  // is derived state, not circuit content.
  num::SolverCache& solver_cache() const { return solver_cache_; }

  // Copies another same-topology netlist's solver cache -- cheap, just
  // shared pointers to immutable structure.  Monte-Carlo samples cloned
  // from a nominal build adopt its pattern and symbolic factorization
  // instead of re-analyzing per sample; the cache validity stamp and
  // SparseLu's pivot-floor guard make a stale adoption degrade to one
  // local re-analysis, never to a wrong result.
  void adopt_solver_cache(const Netlist& other) {
    // Fault-injection site: a failed adoption (e.g. allocation failure
    // copying the cache's shared handles) must degrade to the
    // no-cache path -- the sample re-analyzes locally and produces the
    // identical result, only slower.  Skipping the copy exercises
    // exactly that recovery.
    if (MSIM_FAULTPOINT("cache_adopt_fail")) return;
    solver_cache_ = other.solver_cache_;
    // Re-stamp the adopted cache with THIS netlist's revision: the
    // clone was built by replaying the same topology (same entry
    // sequence, possibly different revision count), and a later edit
    // to this netlist must invalidate the adopted entries too.
    solver_cache_.structure_rev = structure_rev_;
    verdict_ = other.verdict_;
  }

  // Detached-snapshot overload for the serve-layer cache registry: the
  // source netlist is long gone, only its published SolverCache and
  // pre-pass verdict survive (shared pointers to immutable structure).
  // The caller vouches for topology identity (fingerprint plus the
  // registry's structural key check); a wrong-valued symbolic still
  // degrades to one local re-analysis through SparseLu's pivot-floor
  // guard, never to a wrong result.
  void adopt_solver_cache(const num::SolverCache& cache,
                          const StructuralVerdict& verdict) {
    if (MSIM_FAULTPOINT("cache_adopt_fail")) return;
    solver_cache_ = cache;
    solver_cache_.structure_rev = structure_rev_;
    verdict_ = verdict;
  }

  // Structure-only hash consumed by the static pre-pass cache: two
  // netlists with the same devices (type, name, terminals, branch
  // counts) over the same node table hash equal regardless of values.
  std::uint64_t topology_fingerprint() const;

  // Cached static pre-pass verdict (see an::preflight).  Mutable for
  // the same reason as solver_cache(): derived state, not content.
  StructuralVerdict& structural_verdict() const { return verdict_; }

  // Operating-point hand-off, derived state like the solver cache.
  // solve_op records its last converged x in op_solution(), and starts
  // from op_seed() -- exactly as from an initial_guess -- when its
  // caller passes none.  A netlist never seeds itself: only
  // adopt_op_seed fills the seed, so repeated solves and sweeps over
  // one netlist start where they always did.  Monte-Carlo samples
  // (an::run_samples) and ensemble lanes adopt sample 0's solution:
  // a perturbed sample's OP sits close to it, so Newton converges in a
  // few iterations (one on the Table-1 mic rig, 17 from zero).
  // Kept apart from adopt_solver_cache, which changes no number, and
  // never carried by the serve registry.
  void set_op_solution(const num::RealVector& x) { op_x_ = x; }
  const num::RealVector& op_solution() const { return op_x_; }
  const num::RealVector& op_seed() const { return op_seed_; }
  void adopt_op_seed(const Netlist& other) { op_seed_ = other.op_x_; }

 private:
  // Transparent hash: the name indexes below look string_views up
  // without building a std::string key per call.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename V>
  using NameMap =
      std::unordered_map<std::string, V, NameHash, std::equal_to<>>;

  std::vector<std::string> names_;  // index = NodeId
  NameMap<NodeId> by_name_;
  std::vector<std::unique_ptr<Device>> devices_;
  NameMap<std::size_t> index_;
  int unknown_count_ = 0;
  int anon_counter_ = 0;
  // Bumped on every structural mutation (new node, new device); lets
  // assign_unknowns() and topology_fingerprint() short-circuit on an
  // unchanged netlist.  That keeps the per-sample pre-pass cost in a
  // Monte-Carlo loop at one cached hash compare (<1% of scenario wall
  // time -- asserted by the structural_prepass benchmark section).
  std::uint64_t structure_rev_ = 1;
  mutable std::uint64_t fingerprint_rev_ = 0;
  mutable std::uint64_t fingerprint_ = 0;
  std::uint64_t assigned_rev_ = 0;
  mutable num::SolverCache solver_cache_;
  mutable StructuralVerdict verdict_;
  num::RealVector op_x_;
  num::RealVector op_seed_;
};

}  // namespace msim::ckt
