#include "net/topology.h"

#include <cassert>

namespace quasaq::net {

Topology Topology::PaperTestbed() { return Uniform(3); }

Topology Topology::Uniform(int n) {
  assert(n > 0);
  Topology topology;
  for (int i = 0; i < n; ++i) {
    ServerSpec spec;
    spec.id = SiteId(i);
    topology.servers.push_back(spec);
  }
  return topology;
}

std::vector<SiteId> Topology::SiteIds() const {
  std::vector<SiteId> out;
  out.reserve(servers.size());
  for (const ServerSpec& s : servers) out.push_back(s.id);
  return out;
}

const ServerSpec* Topology::Find(SiteId id) const {
  for (const ServerSpec& s : servers) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

}  // namespace quasaq::net
