#include "circuit/netlist.h"

#include <stdexcept>

namespace msim::ckt {

Netlist::Netlist() {
  names_.push_back("0");
  by_name_.emplace("0", kGround);
  by_name_.emplace("gnd", kGround);
}

NodeId Netlist::node(std::string_view name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.emplace_back(name);
  by_name_.emplace(name, id);
  ++structure_rev_;
  return id;
}

NodeId Netlist::internal_node(std::string_view hint) {
  return node("_" + std::string(hint) + std::to_string(anon_counter_++));
}

bool Netlist::has_node(std::string_view name) const {
  return by_name_.contains(name);
}

NodeId Netlist::find_node(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidNode : it->second;
}

const std::string& Netlist::node_name(NodeId id) const {
  return names_.at(static_cast<std::size_t>(id));
}

Device* Netlist::find(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return devices_[it->second].get();
}

std::uint64_t Netlist::topology_fingerprint() const {
  if (fingerprint_rev_ == structure_rev_) return fingerprint_;
  // FNV-1a over the structural description.  Values are excluded on
  // purpose so a Monte-Carlo sample hashes equal to its nominal.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  auto mix_str = [&](std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(0xffu);  // terminator so "ab","c" != "a","bc"
  };
  mix(static_cast<std::uint64_t>(node_count()));
  for (const auto& d : devices_) {
    mix_str(d->type());
    mix_str(d->name());
    for (const NodeId n : d->nodes()) mix(static_cast<std::uint64_t>(n));
    mix(static_cast<std::uint64_t>(d->branch_count()));
  }
  fingerprint_ = h;
  fingerprint_rev_ = structure_rev_;
  return h;
}

int Netlist::assign_unknowns() {
  if (assigned_rev_ == structure_rev_) return unknown_count_;
  int next = node_count() - 1;  // node voltages first (ground excluded)
  for (const auto& d : devices_) {
    d->set_branch_base(next);
    next += d->branch_count();
  }
  unknown_count_ = next;
  if (unknown_count_ == 0)
    throw std::runtime_error("netlist has no unknowns");
  assigned_rev_ = structure_rev_;
  return unknown_count_;
}

}  // namespace msim::ckt
