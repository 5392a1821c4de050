#include "serve/registry.h"

namespace msim::serve {

Json RegistryStats::json() const {
  Json j = Json::object();
  j.set("hits", hits);
  j.set("misses", misses);
  j.set("evictions", evictions);
  j.set("fingerprint_collisions", fingerprint_collisions);
  j.set("result_hits", result_hits);
  j.set("result_misses", result_misses);
  j.set("result_evictions", result_evictions);
  j.set("entries", static_cast<double>(entries));
  j.set("bytes", static_cast<double>(bytes));
  j.set("capacity_bytes", static_cast<double>(capacity_bytes));
  j.set("result_entries", static_cast<double>(result_entries));
  j.set("result_bytes", static_cast<double>(result_bytes));
  j.set("result_capacity_bytes", static_cast<double>(result_capacity_bytes));
  return j;
}

CacheRegistry::CacheRegistry(std::size_t max_bytes,
                             std::size_t max_result_bytes)
    : max_bytes_(max_bytes), max_result_bytes_(max_result_bytes) {}

std::size_t CacheRegistry::entry_bytes(const num::SolverCache& cache) {
  // Approximate footprint of the shared structure; exactness does not
  // matter, monotonicity with actual size does (the LRU cap is a
  // memory-pressure valve, not an accountant).
  std::size_t b = sizeof(Entry);
  if (cache.skeleton) {
    b += cache.skeleton->cols().capacity() * sizeof(int);
    b += cache.skeleton->row_ptr().capacity() * sizeof(int);
    b += cache.skeleton->values().capacity() * sizeof(double);
  }
  if (cache.symbolic) {
    const auto& s = *cache.symbolic;
    b += (s.rowperm.capacity() + s.colperm.capacity() + s.qinv.capacity() +
          s.l_ptr.capacity() + s.l_cols.capacity() + s.u_ptr.capacity() +
          s.u_cols.capacity()) *
         sizeof(int);
  }
  if (cache.slots) {
    const auto& t = *cache.slots;
    for (const num::StampSlotPass* p :
         {&t.base_dcop, &t.base_tran, &t.newton_dcop, &t.newton_tran, &t.ac})
      b += p->slots.capacity() * sizeof(num::StampSlot) +
           p->windows.capacity() * sizeof(std::pair<int, int>);
    b += t.diag.capacity() * sizeof(int);
  }
  return b;
}

void CacheRegistry::touch(Entry& e) {
  lru_.splice(lru_.begin(), lru_, e.lru);
}

void CacheRegistry::evict_to_fit() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    if (it != entries_.end()) {
      bytes_ -= it->second.bytes;
      entries_.erase(it);
      ++counters_.evictions;
    }
  }
}

void CacheRegistry::evict_results_to_fit() {
  while (result_bytes_ > max_result_bytes_ && !result_lru_.empty()) {
    const auto it = results_.find(*result_lru_.back());
    result_lru_.pop_back();
    if (it != results_.end()) {
      result_bytes_ -= it->second.bytes;
      results_.erase(it);
      ++counters_.result_evictions;
    }
  }
}

AdoptOutcome CacheRegistry::adopt_into(ckt::Netlist& nl) {
  const std::uint64_t fp = nl.topology_fingerprint();
  const StructuralKey key{nl.node_count(),
                          static_cast<int>(nl.devices().size()),
                          nl.unknown_count()};
  std::lock_guard<std::mutex> g(mu_);
  auto it = entries_.find(fp);
  if (it == entries_.end()) {
    ++counters_.misses;
    return {};
  }
  if (it->second.key != key) {
    // 64-bit hash collision (or a poisoned test entry): adopting would
    // replay slot indices over the wrong skeleton.  Fall through to a
    // fresh build; the entry stays (first publish won it) so the
    // colliding minority keeps rebuilding rather than thrashing the
    // majority's entry.
    ++counters_.fingerprint_collisions;
    ++counters_.misses;
    return {};
  }
  touch(it->second);
  nl.adopt_solver_cache(it->second.cache, it->second.verdict);
  ++counters_.hits;
  return {true, it->second.lint_clean};
}

void CacheRegistry::publish_from(const ckt::Netlist& nl, bool lint_clean) {
  const num::SolverCache& cache = nl.solver_cache();
  if (!cache.skeleton) return;  // nothing worth keeping
  const std::uint64_t fp = nl.topology_fingerprint();
  const StructuralKey key{nl.node_count(),
                          static_cast<int>(nl.devices().size()),
                          nl.unknown_count()};
  std::lock_guard<std::mutex> g(mu_);
  auto it = entries_.find(fp);
  if (it != entries_.end()) {
    Entry& e = it->second;
    if (e.key == key && e.cache.skeleton == cache.skeleton) {
      // Same shared skeleton: refresh the derived handles -- a warm job
      // may have published a richer slot table (AC pass) or a fresh
      // symbolic after a pivot-floor re-analysis.
      bytes_ -= e.bytes;
      e.cache.symbolic = cache.symbolic;
      e.cache.slots = cache.slots;
      e.verdict = nl.structural_verdict();
      e.bytes = entry_bytes(e.cache);
      bytes_ += e.bytes;
      touch(e);
      evict_to_fit();
    }
    // Different skeleton under the same fingerprint: first publish
    // wins.  Either a true collision (the key check already protects
    // adopters) or two concurrent cold builds of the same topology --
    // keeping the incumbent makes every later adopter deterministic.
    return;
  }
  Entry e;
  e.key = key;
  e.cache = cache;
  e.verdict = nl.structural_verdict();
  e.lint_clean = lint_clean;
  e.bytes = entry_bytes(e.cache);
  lru_.push_front(fp);
  e.lru = lru_.begin();
  bytes_ += e.bytes;
  entries_.emplace(fp, std::move(e));
  evict_to_fit();
}

void CacheRegistry::publish_raw(std::uint64_t fingerprint,
                                const StructuralKey& key,
                                num::SolverCache cache,
                                ckt::StructuralVerdict verdict,
                                bool lint_clean) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
    entries_.erase(it);
  }
  Entry e;
  e.key = key;
  e.cache = std::move(cache);
  e.verdict = verdict;
  e.lint_clean = lint_clean;
  e.bytes = entry_bytes(e.cache);
  lru_.push_front(fingerprint);
  e.lru = lru_.begin();
  bytes_ += e.bytes;
  entries_.emplace(fingerprint, std::move(e));
  evict_to_fit();
}

std::shared_ptr<const std::string> CacheRegistry::find_result(
    const std::string& key) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = results_.find(key);
  if (it == results_.end()) {
    ++counters_.result_misses;
    return nullptr;
  }
  result_lru_.splice(result_lru_.begin(), result_lru_, it->second.lru);
  ++counters_.result_hits;
  return it->second.payload;
}

void CacheRegistry::store_result(const std::string& key,
                                 std::shared_ptr<const std::string> payload) {
  if (!payload) return;
  std::lock_guard<std::mutex> g(mu_);
  const auto [it, fresh] = results_.try_emplace(key);
  if (!fresh) return;  // first result wins (determinism)
  ResultEntry& e = it->second;
  e.bytes = key.size() + payload->size() + sizeof(ResultEntry);
  e.payload = std::move(payload);
  result_lru_.push_front(&it->first);
  e.lru = result_lru_.begin();
  result_bytes_ += e.bytes;
  evict_results_to_fit();
}

void CacheRegistry::clear() {
  std::lock_guard<std::mutex> g(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  results_.clear();
  result_lru_.clear();
  result_bytes_ = 0;
}

RegistryStats CacheRegistry::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  RegistryStats s = counters_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.capacity_bytes = max_bytes_;
  s.result_entries = results_.size();
  s.result_bytes = result_bytes_;
  s.result_capacity_bytes = max_result_bytes_;
  return s;
}

}  // namespace msim::serve
