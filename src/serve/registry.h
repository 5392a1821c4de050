// Cross-request solver-cache registry.
//
// A long-lived process (the msim_serve daemon, msim_cli --jobs batch
// mode) sees the same few topologies over and over: the paper's PGA /
// bandgap / buffer blocks re-simulated across gain codes and MC
// perturbations.  Everything the engine amortizes *within* one netlist
// -- the CSR skeleton, the symbolic LU, the stamp-slot tables, the
// static pre-pass verdict -- is immutable shared structure, so it can
// outlive the netlist that built it.  The registry keys those artifacts
// by topology fingerprint: a warm request adopts them before its first
// solve and pays zero symbolic analysis and zero pattern searches.
//
// Collision guard: the fingerprint is a 64-bit structural hash, so a
// hit additionally verifies a cheap structural key (node count, device
// count, unknown count; the entry also records its skeleton nnz).  A
// mismatch falls through to a fresh build and bumps the
// fingerprint_collision counter instead of adopting a wrong skeleton.
//
// Eviction: LRU over approximate byte size.  Entries are snapshots of
// shared_ptrs to immutable structure, so eviction never invalidates a
// job that already adopted -- the job's shared_ptrs keep the structure
// alive until it finishes.
//
// Result cache: jobs are deterministic functions of (deck text,
// options) unless a wall-clock budget is attached, so the registry can
// also memoize whole job results.  A repeat of an identical job returns
// the stored stdout/stderr/exit-code verbatim -- bitwise identical to
// the first run by construction.  Separate LRU + byte cap from the
// structural entries; callers opt out per job (DeckOptions::use_result_
// cache) and budgeted jobs are never stored.
//
// Thread safety: every public method takes the registry mutex; the
// stored artifacts themselves are immutable, so concurrent adopters
// share them freely (TSan-clean -- see tests/test_serve.cc).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "circuit/netlist.h"
#include "numeric/sparse.h"
#include "serve/json.h"

namespace msim::serve {

// Cheap structural identity of a topology, checked on every fingerprint
// hit before adopting (hash-collision guard).
struct StructuralKey {
  int nodes = 0;
  int devices = 0;
  int unknowns = 0;

  bool operator==(const StructuralKey&) const = default;
};

// Monotonic counters, readable while jobs run.
struct RegistryStats {
  long hits = 0;
  long misses = 0;
  long evictions = 0;
  long fingerprint_collisions = 0;
  long result_hits = 0;
  long result_misses = 0;
  long result_evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;
  std::size_t result_entries = 0;
  std::size_t result_bytes = 0;
  std::size_t result_capacity_bytes = 0;

  Json json() const;
};

// Outcome of CacheRegistry::adopt_into.
struct AdoptOutcome {
  bool warm = false;        // entry found and adopted
  bool lint_clean = false;  // the priming run's full deck lint was clean
};

class CacheRegistry {
 public:
  explicit CacheRegistry(std::size_t max_bytes = 64u << 20,
                         std::size_t max_result_bytes = 16u << 20);

  // Looks up nl's topology fingerprint; on a verified hit copies the
  // entry's SolverCache + verdict into nl (shared immutable handles,
  // see Netlist::adopt_solver_cache) and returns warm = true.
  // Requires assign_unknowns() to have run (the structural key needs
  // the unknown count).
  AdoptOutcome adopt_into(ckt::Netlist& nl);

  // Publishes nl's current solver cache + verdict under its
  // fingerprint.  First publish wins the entry; a later publish over
  // the SAME skeleton refreshes the symbolic/slots handles (a warm job
  // may have recorded a pass -- e.g. the AC slot pass -- the priming
  // job never ran).  `lint_clean` records whether the full deck lint
  // reported zero issues, letting warm repeats of the topology skip
  // the value-INdependent lint passes: the fingerprint pins structure
  // only, so the value-dependent passes (finite_params, value_range)
  // must still run on every deck -- a same-topology deck can carry a
  // NaN parameter the priming run never saw.
  void publish_from(const ckt::Netlist& nl, bool lint_clean);

  // Test hook: installs an entry verbatim (no consistency checks), so
  // the collision path -- fingerprint match, structural key mismatch --
  // can be exercised deterministically.
  void publish_raw(std::uint64_t fingerprint, const StructuralKey& key,
                   num::SolverCache cache, ckt::StructuralVerdict verdict,
                   bool lint_clean);

  // Whole-job result memoization (see file comment).  Keys are opaque
  // strings built by the job runner from deck text + options.
  std::shared_ptr<const std::string> find_result(const std::string& key);
  void store_result(const std::string& key,
                    std::shared_ptr<const std::string> payload);

  // Drops every entry (tests; also lets a daemon reset between phases).
  void clear();

  RegistryStats stats() const;

 private:
  struct Entry {
    StructuralKey key;
    num::SolverCache cache;
    ckt::StructuralVerdict verdict;
    bool lint_clean = false;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru;
  };
  struct ResultEntry {
    std::shared_ptr<const std::string> payload;
    std::size_t bytes = 0;
    std::list<const std::string*>::iterator lru;
  };

  void touch(Entry& e);
  void evict_to_fit();
  void evict_results_to_fit();
  static std::size_t entry_bytes(const num::SolverCache& cache);

  mutable std::mutex mu_;
  std::size_t max_bytes_;
  std::size_t max_result_bytes_;
  std::size_t bytes_ = 0;
  std::size_t result_bytes_ = 0;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::string, ResultEntry> results_;
  // Points at the keys in results_ (node keys never move), so a key --
  // the whole deck text -- is stored once.
  std::list<const std::string*> result_lru_;
  RegistryStats counters_;
};

}  // namespace msim::serve
