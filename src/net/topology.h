#ifndef QUASAQ_NET_TOPOLOGY_H_
#define QUASAQ_NET_TOPOLOGY_H_

#include <vector>

#include "common/ids.h"

// Distributed testbed topology. The paper's deployment: three servers on
// separate 100 Mbps Ethernets, each with 3200 KB/s of total streaming
// bandwidth; clients 2–3 hops away; the bottleneck link is always the
// server's outbound link and those links are dedicated to the
// experiments. Each server's capacities below become its resource-pool
// buckets; no link is simulated beyond its bucket.

namespace quasaq::net {

// Static description of one database server site.
struct ServerSpec {
  SiteId id;
  double outbound_kbps = 3200.0;   // total streaming bandwidth
  double disk_kbps = 20000.0;      // sequential read bandwidth
  double memory_kb = 1024.0 * 1024.0;  // staging-buffer budget
  // Read bandwidth of the in-memory segment cache; far above the disk,
  // so cache-served plans relieve the disk bucket (src/cache/).
  double memory_bandwidth_kbps = 200000.0;
};

// Static description of the whole deployment.
struct Topology {
  std::vector<ServerSpec> servers;

  /// The paper's testbed: 3 identical servers with 3200 KB/s links.
  static Topology PaperTestbed();

  /// `n` identical servers with the paper's per-server capacities
  /// (used by the scale-out experiments the paper lists as future work).
  static Topology Uniform(int n);

  std::vector<SiteId> SiteIds() const;
  const ServerSpec* Find(SiteId id) const;
};

}  // namespace quasaq::net

#endif  // QUASAQ_NET_TOPOLOGY_H_
